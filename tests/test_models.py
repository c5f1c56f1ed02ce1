"""Architecture, forward-pass, and parameter-persistence tests."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import srelu_defense as sd
from srelu_defense import autodiff as ad
from srelu_defense import experiments as ex
from srelu_defense import models as md
from srelu_defense.data import take_first
from srelu_defense.models import (
    Act,
    ArchitectureSpec,
    Dense,
    Flatten,
    Model,
    ParamsFormatError,
    build_model,
    load_params,
    penultimate_features,
    save_params,
)

from helpers import is_chwn_memory, params_file_bytes, trainable


def toy_one_site_spec(features=6, hidden=4):
    """Flatten -> dense -> activation -> dense, one activation site."""
    return ArchitectureSpec(
        id="toy",
        input_shape=(1, 1, features),
        layers=(
            Flatten(),
            Dense("fc1", features, hidden),
            Act(),
            Dense("fc2", hidden, 10),
        ),
    )


def rand_batch(rng, model, n=3):
    return rng.uniform(0, 1, size=(n,) + model.spec.input_shape).astype(np.float32)


# ---------------------------------------------------------------------------
# construction


def test_build_is_deterministic_per_seed():
    a = build_model("mnist_cnn", seed=42)
    b = build_model("mnist_cnn", seed=42)
    for name in a.params:
        assert a.params[name].data.tobytes() == b.params[name].data.tobytes()
    c = build_model("mnist_cnn", seed=43)
    assert any(
        a.params[n].data.tobytes() != c.params[n].data.tobytes() for n in a.params
    )


def test_mnist_cnn_emits_ten_logits():
    model = build_model("mnist_cnn", seed=0)
    logits = model.logits(np.zeros((2, 1, 28, 28), dtype=np.float32))
    assert logits.shape == (2, 10)


def test_cifar_variants_share_parameter_shapes():
    cnn1 = build_model("cifar10_cnn1", seed=0)
    cnn2 = build_model("cifar10_cnn2", seed=0)
    assert {n: t.shape for n, t in cnn1.params.items()} == {
        n: t.shape for n, t in cnn2.params.items()
    }


def test_unknown_architecture():
    with pytest.raises(ValueError, match="unknown architecture"):
        build_model("resnet50", seed=0)


def test_slope_config_validation():
    model = build_model("mnist_cnn", seed=0)
    with pytest.raises(ValueError, match="positive"):
        Model(model.spec, model.params, slope=0.0)
    with pytest.raises(ValueError, match="positive"):
        model.with_slope(-1.0)
    with pytest.raises(ValueError, match="unknown test activation"):
        Model(model.spec, model.params, activation="swish")
    with pytest.raises(ValueError, match="unknown test activation"):
        model.with_activation("swish")
    with pytest.raises(ValueError, match="only to srelu"):
        Model(model.spec, model.params, slope=2.0, activation="tanh")
    with pytest.raises(ValueError, match="only to srelu"):
        model.with_slope(2.0).with_activation("tanh")


def test_nan_slope_is_rejected():
    model = build_model("mnist_cnn", seed=0)
    with pytest.raises(ValueError, match="positive"):
        Model(model.spec, model.params, slope=float("nan"))
    with pytest.raises(ValueError, match="positive"):
        model.with_slope(float("nan"))


def test_infinite_slope_is_rejected():
    # srelu would compute 0 * inf = nan on every inactive unit, which predict
    # would then blame on an overflowing forward pass
    model = build_model("mnist_cnn", seed=0)
    with pytest.raises(ValueError, match="positive and finite, got inf"):
        Model(model.spec, model.params, slope=float("inf"))
    with pytest.raises(ValueError, match="positive and finite, got inf"):
        model.with_slope(float("inf"))


# ---------------------------------------------------------------------------
# forward passes


def test_eval_at_slope_one_equals_train_mode(rng):
    model = build_model("mnist_cnn", seed=7)
    batch = rand_batch(rng, model)
    eval_logits = model.with_slope(1.0).logits(batch)
    train_logits = md._forward(trainable(model), ad.Tensor(batch)).data
    np.testing.assert_array_equal(eval_logits, train_logits)


@pytest.mark.parametrize("batch", [1, 2, 3, 64, 255, 256])
@pytest.mark.parametrize("arch", sorted(md.ARCHITECTURES))
def test_evaluation_layout_bits_equal_the_training_order_forward(arch, batch):
    # both tapes hold CHWN activations between the first conv and the flatten;
    # the trainable view's parameters take gradients, so its convs keep their
    # im2col columns, and its forward and input gradient keep the same bits
    model = build_model(arch, seed=5)
    rng = np.random.default_rng(batch)
    images = rng.uniform(0.0, 1.0, size=(batch,) + model.spec.input_shape).astype(np.float32)
    labels = np.arange(batch) % 10
    for slope in (1.0, 10.0):
        ev, train_order = model.with_slope(slope), trainable(model).with_slope(slope)
        logits = ev.logits(images)
        loss, grad = ev.loss_input_grad(images, labels)
        feats = penultimate_features(ev, images)
        ref_loss, ref_grad = train_order.loss_input_grad(images, labels)
        np.testing.assert_array_equal(logits, train_order.logits(images))
        np.testing.assert_array_equal(grad, ref_grad)
        assert loss == ref_loss
        np.testing.assert_array_equal(feats, penultimate_features(train_order, images))
        assert grad.shape == images.shape
        for a in (logits, grad, feats):
            assert a.flags.c_contiguous


CHUNK = 256  # images in the batch whose rows are compared, past all padding


@pytest.fixture(scope="module")
def chunk_rows():
    """Per (arch, slope): the model, a chunk of images and labels, and the
    chunk's logits and input-gradient rows (each its own image's loss's)."""
    cache = {}

    def rows(arch, slope):
        if (arch, slope) not in cache:
            model = build_model(arch, seed=13).with_slope(slope)
            rng = np.random.default_rng(13)
            images = rng.uniform(0.0, 1.0, size=(CHUNK,) + model.spec.input_shape)
            images = images.astype(np.float32)
            labels = rng.integers(0, 10, size=CHUNK)
            _, grads = model.loss_input_grad(images, labels)
            cache[arch, slope] = model, images, labels, model.logits(images), grads
        return cache[arch, slope]

    return rows


@settings(max_examples=40, deadline=None)
@given(arch=st.sampled_from(sorted(md.ARCHITECTURES)), slope=st.sampled_from((1.0, 10.0)),
       size=st.integers(1, CHUNK), offset=st.integers(0, CHUNK - 1))
@example(arch="cifar10_cnn1", slope=10.0, size=1, offset=3)
@example(arch="cifar10_cnn2", slope=1.0, size=65, offset=0)
@example(arch="mnist_cnn", slope=1.0, size=63, offset=3)
@example(arch="mnist_cnn", slope=10.0, size=255, offset=1)
def test_batch_invariant_rows_in_any_subset_of_a_chunk(chunk_rows, arch, slope, size,
                                                       offset):
    # any run of a chunk's images, attacked alone, has the bits it has in the
    # whole chunk: the grid's slices and the sign steps' active sets rely on
    # it. Fails, rather than silently moving report bits, on a BLAS whose
    # small-GEMM rounding the padding does not reach
    model, images, labels, logits, grads = chunk_rows(arch, slope)
    lo = min(offset, CHUNK - size)
    rows = slice(lo, lo + size)
    assert model.logits(images[rows]).tobytes() == logits[rows].tobytes()
    _, part = model.loss_input_grad(images[rows], labels[rows])
    assert part.tobytes() == grads[rows].tobytes()
    assert grads[rows].any()  # the rows compared hold real gradients, not only zeros


LINEARIZED = 24  # images in one batched linearization, under dense's padding


@pytest.fixture(scope="module")
def linearized_rows():
    """Per (arch, slope): the model, LINEARIZED images, and their logits and
    logit gradients from one batched linearization."""
    cache = {}

    def rows(arch, slope):
        if (arch, slope) not in cache:
            model = build_model(arch, seed=17).with_slope(slope)
            rng = np.random.default_rng(17)
            images = rng.uniform(0.0, 1.0, size=(LINEARIZED,) + model.spec.input_shape)
            images = images.astype(np.float32)
            cache[arch, slope] = (model, images, *model.logit_input_grads(images))
        return cache[arch, slope]

    return rows


@settings(max_examples=12, deadline=None)
@given(arch=st.sampled_from(sorted(md.ARCHITECTURES)), slope=st.sampled_from((1.0, 10.0)),
       size=st.integers(1, LINEARIZED), offset=st.integers(0, LINEARIZED - 1))
@example(arch="mnist_cnn", slope=1.0, size=1, offset=5)
@example(arch="cifar10_cnn1", slope=10.0, size=3, offset=0)
def test_batch_invariant_logit_grads_in_any_subset_of_a_batch(linearized_rows, arch, slope, size,
                                                               offset):
    # DeepFool linearizes only the rows still moving, so each image's logits
    # and logit gradients must have the bits they have in the whole batch
    model, images, logits, grads = linearized_rows(arch, slope)
    assert grads.shape == (10,) + images.shape
    lo = min(offset, LINEARIZED - size)
    rows = slice(lo, lo + size)
    part_logits, part = model.logit_input_grads(images[rows])
    assert part_logits.tobytes() == logits[rows].tobytes()
    assert part_logits.tobytes() == model.logits(images[rows]).tobytes()
    assert part.tobytes() == grads[:, rows].tobytes()
    assert grads[:, rows].any()


def _scalar_pass_grads(model, images, heads):
    """The input gradient of each scalar head(logits, tape), each from its own
    reverse pass over one taped batch-invariant forward."""
    tape = ad.Tape()
    x = ad.Tensor(images, requires_grad=True)
    logits = md._forward(model, x, tape=tape, batch_invariant=True)
    return [ad.backward(tape, head(logits, tape))[x] for head in heads]


def _logit_head(k):
    """sum_all(dense(logits, e_k, 0)): the sum of every image's logit k."""
    e_k = ad.Tensor(np.eye(10, dtype=np.float32)[:, k:k + 1])
    zero = ad.Tensor(np.zeros(1, np.float32))
    return lambda logits, tape: ad.sum_all(ad.dense(logits, e_k, zero, tape=tape), tape=tape)


@pytest.mark.parametrize("n", [1, 2, 3, 5, 64, 256])
@pytest.mark.parametrize("arch", sorted(md.ARCHITECTURES))
def test_seeded_pass_bits_equal_scalar_reverse_passes(arch, n):
    # n spans both sides of CONV_MIN_BATCH (4) and DENSE_MIN_ROWS (128). The
    # logit gradients, one forward seeded with each class's one-hot column, are
    # K scalar passes'. A row of the summed loss's gradient is its image's mean
    # loss's in a batch of one, where the mean is the sum; n times the whole
    # batch's mean is no reference, as it is inexact once a value is subnormal
    # (cifar10_cnn1 at slope 10)
    rng = np.random.default_rng(n)
    for slope in (1.0, 10.0):
        model = build_model(arch, seed=19).with_slope(slope)
        images = rand_batch(rng, model, n=n)
        labels = rng.integers(0, 10, size=n)
        logits, grads = model.logit_input_grads(images)
        assert logits.tobytes() == model.logits(images).tobytes()
        columns = _scalar_pass_grads(model, images, [_logit_head(k) for k in range(10)])
        assert grads.tobytes() == np.stack(columns).tobytes()

        loss, grad = model.loss_input_grad(images, labels)
        assert grad.any()
        row_losses = [ad.softmax_cross_entropy(ad.Tensor(row[None]), [label]).item()
                      for row, label in zip(logits, labels)]
        assert loss == np.float32(row_losses).sum()
        for i in sorted({0, n // 2, n - 1}):
            [alone] = _scalar_pass_grads(model, images[i:i + 1], [
                lambda logits, tape: ad.softmax_cross_entropy(logits, labels[i:i + 1], tape=tape)])
            assert grad[i:i + 1].tobytes() == alone.tobytes()


def test_tape_layout_is_chwn_from_first_conv_to_flatten(rng):
    # one rule on the padded Model tape and the unpadded training tape, at every
    # batch size: each 4-D activation from the first conv to the flatten is CHWN
    for arch, spec in md.ARCHITECTURES.items():
        model = build_model(arch, seed=2)
        maps = spec.layers.index(Flatten())  # conv, pool and act layers before it
        for batch in (1, 2, 3, 5, 64):
            images = rand_batch(rng, model, n=batch)
            for view, padded in ((model, True), (trainable(model), False)):
                tape = ad.Tape()
                md._forward(view, ad.Tensor(images, requires_grad=True), tape=tape,
                            batch_invariant=padded)
                four_d = [rec.out.data for rec in tape._records if rec.out.data.ndim == 4]
                assert len(four_d) == maps, (arch, batch, padded)
                for out in four_d:  # at a batch of one CHWN memory is row-major too
                    assert is_chwn_memory(out), (arch, batch, padded)
                    assert batch == 1 or not out.flags.c_contiguous
                assert tape._records[-1].out.data.flags.c_contiguous  # the logits


def test_toy_slope_two_doubles_logits(rng):
    model = build_model(toy_one_site_spec(), seed=3)
    model.params["fc2.b"].data[:] = 0.0  # bias would break the scaling identity
    batch = rand_batch(rng, model)
    one = model.with_slope(1.0).logits(batch)
    two = model.with_slope(2.0).logits(batch)
    np.testing.assert_allclose(two, 2.0 * one, rtol=1e-6)


def test_forward_shape_mismatch():
    model = build_model("mnist_cnn", seed=0)
    with pytest.raises(ValueError, match="does not match expected"):
        model.logits(np.zeros((1, 3, 32, 32), dtype=np.float32))


def test_activation_swap_is_applied(rng):
    model = build_model("mnist_cnn", seed=7)
    batch = rand_batch(rng, model)
    relu = model.logits(batch)
    tanh = model.with_activation("tanh").logits(batch)
    assert not np.array_equal(relu, tanh)
    back = model.with_activation("srelu").logits(batch)
    np.testing.assert_array_equal(relu, back)


# ---------------------------------------------------------------------------
# predictions and features


def test_predict_ties_take_lowest_class(monkeypatch, rng):
    model = build_model("mnist_cnn", seed=0)
    batch = rand_batch(rng, model, n=4)
    monkeypatch.setattr(
        Model, "logits", lambda self, b: np.zeros((len(b), 10))
    )
    np.testing.assert_array_equal(model.predict(batch), np.zeros(4))


def test_predict_rejects_non_finite_logits(rng):
    # three rectifier sites at slope 1e20 overflow float32: the logits are NaN
    model = build_model("mnist_cnn", seed=0).with_slope(1e20)
    batch = rand_batch(rng, model, n=4)
    with np.errstate(over="ignore", invalid="ignore"):
        assert not np.isfinite(model.logits(batch)).any()
    with pytest.raises(ValueError, match=r"non-finite logits for 4 of 4 images "
                                         r"at test slope 1e\+20"):
        model.predict(batch)


def test_penultimate_features_reject_non_finite_values(rng):
    model = build_model("mnist_cnn", seed=0).with_slope(1e20)
    with pytest.raises(ValueError, match=r"non-finite features for \d of 3 images "
                                         r"at test slope 1e\+20"):
        penultimate_features(model, rand_batch(rng, model, n=3))


def test_predict_batch_of_k_gives_k_labels(rng):
    model = build_model("mnist_cnn", seed=0)
    labels = model.predict(rand_batch(rng, model, n=5))
    assert labels.shape == (5,)
    assert ((labels >= 0) & (labels < 10)).all()


def test_penultimate_width_matches_architecture(rng):
    model = build_model("mnist_cnn", seed=0)
    feats = penultimate_features(model, rand_batch(rng, model, n=3))
    assert feats.shape == (3, 50)
    cifar = build_model("cifar10_cnn1", seed=0)
    feats = penultimate_features(cifar, rand_batch(rng, cifar, n=2))
    assert feats.shape == (2, 84)


def test_penultimate_toy_scaling(rng):
    model = build_model(toy_one_site_spec(), seed=4)
    batch = rand_batch(rng, model)
    f1 = penultimate_features(model.with_slope(1.0), batch)
    f2 = penultimate_features(model.with_slope(2.0), batch)
    np.testing.assert_allclose(f2, 2.0 * f1, rtol=1e-6)
    positive = f1 > 0
    assert (np.abs(f2[positive]) >= np.abs(f1[positive])).all()


def test_penultimate_magnitude_grows_with_slope_zero_bias(rng):
    model = build_model("mnist_cnn", seed=2)
    for name, tensor in model.params.items():
        if name.endswith(".b"):
            tensor.data[:] = 0.0
    batch = rand_batch(rng, model, n=2)
    f1 = penultimate_features(model.with_slope(1.0), batch)
    f2 = penultimate_features(model.with_slope(2.0), batch)
    positive = f1 > 0
    assert (f2[positive] >= f1[positive]).all()


def test_zero_input_features_come_from_biases_only():
    model = build_model("mnist_cnn", seed=5)
    zero_batch = np.zeros((2, 1, 28, 28), dtype=np.float32)
    feats = penultimate_features(model, zero_batch)
    np.testing.assert_array_equal(feats[0], feats[1])
    for name, tensor in model.params.items():
        if name.endswith(".b"):
            tensor.data[:] = 0.0
    np.testing.assert_array_equal(
        penultimate_features(model, zero_batch), np.zeros((2, 50), dtype=np.float32)
    )


# ---------------------------------------------------------------------------
# structural invariants


def test_cnn1_cnn2_agree_with_identity_activations(rng):
    cnn1 = build_model("cifar10_cnn1", seed=9)
    cnn2 = Model(md.ARCHITECTURES["cifar10_cnn2"], cnn1.params)
    batch = rand_batch(rng, cnn1)
    with_relu_1 = cnn1.logits(batch)
    with_relu_2 = cnn2.logits(batch)
    assert not np.array_equal(with_relu_1, with_relu_2)  # placement matters
    ident_1 = cnn1.with_activation("identity").logits(batch)
    ident_2 = cnn2.with_activation("identity").logits(batch)
    np.testing.assert_array_equal(ident_1, ident_2)


def test_argmax_invariant_under_final_layer_rescaling(rng):
    for slope in (0.5, 1.0, 10.0):
        model = build_model("mnist_cnn", seed=11).with_slope(slope)
        batch = rand_batch(rng, model, n=8)
        before = model.predict(batch)
        model.params["fc2.w"].data *= 3.0
        model.params["fc2.b"].data *= 3.0
        np.testing.assert_array_equal(model.predict(batch), before)


def test_eval_forward_never_mutates_parameters(rng):
    model = build_model("mnist_cnn", seed=1)
    before = {n: t.data.tobytes() for n, t in model.params.items()}
    model.with_slope(100.0).logits(rand_batch(rng, model))
    model.loss_input_grad(rand_batch(rng, model), np.array([1, 2, 3]))
    after = {n: t.data.tobytes() for n, t in model.params.items()}
    assert before == after


def _forward_grads(model, batch):
    tape = ad.Tape()
    x = ad.Tensor(batch, requires_grad=True)
    logits = md._forward(model, x, tape=tape)
    loss = ad.softmax_cross_entropy(logits, np.arange(len(batch)) % 10, tape=tape)
    return x, ad.backward(tape, loss)


def test_input_gradient_forward_gives_no_parameter_entries(rng):
    model = build_model("mnist_cnn", seed=2)
    x, grads = _forward_grads(model, rand_batch(rng, model))
    assert x in grads
    assert not any(p in grads for p in model.params.values())


def test_training_forward_gives_one_entry_per_parameter(rng):
    # _sgd looks each parameter up with grads.get(param)
    model = trainable(build_model("mnist_cnn", seed=2))
    _, grads = _forward_grads(model, rand_batch(rng, model))
    for name, param in model.params.items():
        assert isinstance(grads[param], np.ndarray), name
        assert grads[param].shape == param.shape, name


def _conv_column_shapes(model, x):
    """Shapes of the (C*kh*kw, N*ho*wo) arrays each conv2d backward closure holds."""
    tape = ad.Tape()
    md._forward(model, x, tape=tape)
    held = []
    for rec in tape._records:
        if len(rec.inputs) == 3 and rec.inputs[1].data.ndim == 4:
            c, kh, kw = rec.inputs[1].shape[1:]
            n, _, ho, wo = rec.out.shape
            held += [cell.cell_contents.shape for cell in rec.backward_fn.__closure__
                     if getattr(cell.cell_contents, "shape", None) == (c * kh * kw, n * ho * wo)]
    return held


def test_only_a_weight_gradient_keeps_conv_columns(rng):
    model = build_model("mnist_cnn", seed=2)
    x = ad.Tensor(rand_batch(rng, model, n=4), requires_grad=True)
    assert _conv_column_shapes(model, x) == []
    assert _conv_column_shapes(trainable(model), x) == [(25, 4 * 24 * 24), (250, 4 * 8 * 8)]


def test_input_gradient_peak_memory_at_the_evaluation_chunk(rng):
    # an attack tape's im2col columns live in this thread's reused scratch;
    # held on the tape until the reverse pass, both convs' would take 31 MB
    model = build_model("mnist_cnn", seed=2)
    batch, labels = rand_batch(rng, model, n=256), np.arange(256) % 10
    model.loss_input_grad(batch, labels)  # this thread's scratch is warm
    tracemalloc.start()
    try:
        model.loss_input_grad(batch, labels)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 32e6


# ---------------------------------------------------------------------------
# persistence


def test_save_load_save_round_trip(tmp_path):
    model = build_model("mnist_cnn", seed=21)
    first = tmp_path / "a.bin"
    second = tmp_path / "b.bin"
    save_params(model, first)
    loaded = load_params(first, "mnist_cnn")
    save_params(loaded, second)
    assert first.read_bytes() == second.read_bytes()
    for name in model.params:
        assert loaded.params[name].data.tobytes() == model.params[name].data.tobytes()


def test_load_rejects_bad_magic(tmp_path):
    path = tmp_path / "bad.bin"
    path.write_bytes(b"NOPE" + b"\x00" * 32)
    with pytest.raises(ParamsFormatError, match="magic"):
        load_params(path, "mnist_cnn")


def test_load_rejects_bad_version(tmp_path):
    model = build_model("mnist_cnn", seed=0)
    path = tmp_path / "v.bin"
    save_params(model, path)
    blob = bytearray(path.read_bytes())
    blob[4] = 99
    path.write_bytes(bytes(blob))
    with pytest.raises(ParamsFormatError, match="version"):
        load_params(path, "mnist_cnn")


def test_load_rejects_truncation(tmp_path):
    model = build_model("mnist_cnn", seed=0)
    path = tmp_path / "t.bin"
    save_params(model, path)
    blob = path.read_bytes()
    path.write_bytes(blob[: len(blob) // 2])
    with pytest.raises(ParamsFormatError, match="truncated"):
        load_params(path, "mnist_cnn")


def test_load_into_wrong_architecture_names_tensor(tmp_path):
    model = build_model("mnist_cnn", seed=0)
    path = tmp_path / "m.bin"
    save_params(model, path)
    with pytest.raises(ParamsFormatError, match="fc3"):
        load_params(path, "cifar10_cnn1")


def test_load_shape_mismatch_names_tensor(tmp_path):
    from srelu_defense.models import Conv, Pool

    model = build_model("mnist_cnn", seed=0)
    path = tmp_path / "m.bin"
    save_params(model, path)
    wider = ArchitectureSpec(
        id="mnist_wide",
        input_shape=(1, 28, 28),
        layers=(
            Conv("conv1", 1, 10, 5), Pool(2), Act(),
            Conv("conv2", 10, 20, 5), Pool(2), Act(),
            Flatten(), Dense("fc1", 320, 60), Act(), Dense("fc2", 60, 10),
        ),
    )
    with pytest.raises(ParamsFormatError, match="'fc1.w'"):
        load_params(path, wider)


def test_cifar_params_load_into_either_variant(tmp_path):
    model = build_model("cifar10_cnn1", seed=3)
    path = tmp_path / "c.bin"
    save_params(model, path)
    as_cnn2 = load_params(path, "cifar10_cnn2")
    assert as_cnn2.spec.id == "cifar10_cnn2"
    for name in model.params:
        assert as_cnn2.params[name].data.tobytes() == model.params[name].data.tobytes()


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_load_rejects_non_finite_values_naming_tensor(tmp_path, bad):
    params = {n: t.data.copy() for n, t in build_model("mnist_cnn", seed=0).params.items()}
    params["fc2.w"][:] = bad
    path = tmp_path / "nan.bin"
    path.write_bytes(params_file_bytes(params.items()))
    with pytest.raises(ParamsFormatError, match="'fc2.w'.*non-finite"):
        load_params(path, "mnist_cnn")


def test_load_rejects_a_repeated_tensor_naming_it(tmp_path):
    params = [(n, t.data) for n, t in build_model("mnist_cnn", seed=0).params.items()]
    path = tmp_path / "twice.bin"
    path.write_bytes(params_file_bytes(params + [("fc2.b", params[-1][1] + 1.0)]))
    with pytest.raises(ParamsFormatError, match="'fc2.b' appears more than once"):
        load_params(path, "mnist_cnn")


def test_load_rejects_trailing_bytes(tmp_path):
    params = [(n, t.data) for n, t in build_model("mnist_cnn", seed=0).params.items()]
    path = tmp_path / "tail.bin"
    path.write_bytes(params_file_bytes(params) + b"\x00")
    with pytest.raises(ParamsFormatError, match="trailing bytes after last tensor"):
        load_params(path, "mnist_cnn")


def test_load_rejects_a_rank_above_8_naming_the_tensor(tmp_path):
    path = tmp_path / "rank.bin"
    path.write_bytes(params_file_bytes([("conv1.w", np.zeros((1,) * 9))]))
    with pytest.raises(ParamsFormatError, match="implausible rank 9 for tensor 'conv1.w'"):
        load_params(path, "mnist_cnn")


@pytest.mark.parametrize("bad", [np.nan, -np.inf])
def test_save_refuses_non_finite_values_naming_tensor(tmp_path, bad):
    model = build_model("mnist_cnn", seed=0)
    model.params["conv2.b"].data[3] = bad
    path = tmp_path / "nan.bin"
    with pytest.raises(ParamsFormatError, match="'conv2.b'.*non-finite"):
        save_params(model, path)
    assert not path.exists()


def test_only_the_training_loop_makes_parameters_trainable(tmp_path, synth_sets):
    built = build_model("mnist_cnn", seed=5)
    path = tmp_path / "m.bin"
    save_params(built, path)
    for model in (built, load_params(path, "mnist_cnn")):
        assert not any(p.requires_grad for p in model.params.values())
        before = model.params["fc2.w"].data.copy()
        ex.train(model, take_first(synth_sets[0], 32), epochs=1, seed=1)
        assert not np.array_equal(model.params["fc2.w"].data, before)  # trained in place
        assert not any(p.requires_grad for p in model.params.values())


def test_loaded_model_trains(tmp_path, synth_sets):
    model = build_model("mnist_cnn", seed=5)
    path = tmp_path / "m.bin"
    save_params(model, path)
    loaded = load_params(path, "mnist_cnn")
    before = loaded.params["fc2.w"].data.copy()
    losses = ex.train(loaded, take_first(synth_sets[0], 32), epochs=1, seed=1)
    assert len(losses) == 1 and np.isfinite(losses[0])
    assert not np.array_equal(loaded.params["fc2.w"].data, before)


def test_load_draws_no_random_weights(tmp_path, monkeypatch):
    model = build_model("cifar10_cnn1", seed=3)
    path = tmp_path / "c.bin"
    save_params(model, path)
    monkeypatch.setattr(md, "build_model", None)
    monkeypatch.setattr(md, "_init_param", None)
    loaded = load_params(path, "cifar10_cnn1")
    assert list(loaded.params) == list(model.params)
