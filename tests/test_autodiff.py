"""Operator-level tests: frozen examples, gradient oracles, and invariants."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from srelu_defense import autodiff as ad
from srelu_defense.autodiff import Tape, Tensor

from helpers import chwn_memory, finite_difference_oracle, is_chwn_memory, pool_windows


def grad_of(build, *tensors):
    """Run build(tape) -> scalar loss and return gradients of the tensors."""
    tape = Tape()
    loss = build(tape)
    grads = ad.backward(tape, loss)
    return [grads[t] for t in tensors]


# ---------------------------------------------------------------------------
# Tensor


def test_array_copy_true_never_shares_the_tensor_data():
    t = Tensor(np.arange(4.0))
    for arr in (np.array(t), np.array(t, copy=True), t.__array__(copy=True),
                np.array(t, dtype=np.float64)):
        assert not np.shares_memory(arr, t.data)
        arr[0] = 7.0
    np.testing.assert_array_equal(t.data, np.arange(4.0))
    assert np.asarray(t) is t.data
    assert np.shares_memory(np.array(t, copy=False), t.data)


def test_array_copy_false_refuses_a_dtype_change():
    t = Tensor(np.arange(4.0))
    with pytest.raises(ValueError):
        t.__array__(np.float64, copy=False)
    with pytest.raises(ValueError):
        np.array(t, dtype=np.float64, copy=False)


def test_tensor_keeps_row_major_and_chwn_memory_and_copies_other_strides():
    x = np.arange(2 * 3 * 4 * 5, dtype=np.float32).reshape(2, 3, 4, 5)
    assert Tensor(x).data is x
    chwn = chwn_memory(x)
    assert Tensor(chwn).data is chwn
    for strided in (x[:, :, ::2], x.transpose(0, 2, 3, 1), x[::-1]):
        data = Tensor(strided).data
        assert data.flags.c_contiguous
        np.testing.assert_array_equal(data, strided)


def test_take_reads_and_routes_by_nchw_index_in_chwn_memory():
    x = np.arange(24, dtype=np.float32).reshape(2, 3, 2, 2)
    t = Tensor(chwn_memory(x), requires_grad=True)
    (gx,) = grad_of(lambda tape: ad.take(t, 5, tape=tape), t)
    assert ad.take(t, 5).item() == x.reshape(-1)[5]
    np.testing.assert_array_equal(gx.reshape(-1), np.eye(24, dtype=np.float32)[5])


# ---------------------------------------------------------------------------
# conv2d


def test_conv2d_1x1_kernel_scales():
    x = Tensor([[[[1.0, 2.0], [3.0, 4.0]]]])
    w = Tensor([[[[2.0]]]])
    b = Tensor([0.0])
    out = ad.conv2d(x, w, b)
    np.testing.assert_array_equal(out.data, [[[[2.0, 4.0], [6.0, 8.0]]]])


def test_conv2d_sum_kernel():
    x = Tensor([[[[1.0, 2.0], [3.0, 4.0]]]])
    w = Tensor(np.ones((1, 1, 2, 2)))
    b = Tensor([0.0])
    out = ad.conv2d(x, w, b)
    np.testing.assert_array_equal(out.data, [[[[10.0]]]])


def test_conv2d_zero_kernel_emits_bias():
    rng = np.random.default_rng(0)
    x = Tensor(rng.uniform(size=(2, 3, 6, 6)))
    w = Tensor(np.zeros((4, 3, 3, 3)))
    b = Tensor([1.5, -2.0, 0.0, 3.0])
    out = ad.conv2d(x, w, b).data
    for c in range(4):
        np.testing.assert_allclose(out[:, c], b.data[c])


def test_conv2d_output_dims():
    x = Tensor(np.zeros((1, 1, 9, 7)))
    w = Tensor(np.zeros((2, 1, 3, 3)))
    b = Tensor(np.zeros(2))
    assert ad.conv2d(x, w, b).shape == (1, 2, 7, 5)


@pytest.mark.parametrize(
    "x_shape,w_shape,msg",
    [
        ((1, 2, 5, 5), (3, 1, 3, 3), "channel mismatch"),
        ((1, 1, 2, 2), (1, 1, 3, 3), "does not fit"),
        ((1, 1, 5, 5, 1), (1, 1, 3, 3), "NCHW"),
    ],
)
def test_conv2d_shape_errors(x_shape, w_shape, msg):
    with pytest.raises(ValueError, match=msg):
        ad.conv2d(Tensor(np.zeros(x_shape)), Tensor(np.zeros(w_shape)),
                  Tensor(np.zeros(w_shape[0])))


# ---------------------------------------------------------------------------
# maxpool2d


def test_maxpool_basic():
    x = Tensor([[[[1.0, 2.0], [3.0, 4.0]]]])
    assert ad.maxpool2d(x, 2).data.reshape(()) == 4.0


def test_maxpool_constant_input():
    x = Tensor(np.full((1, 2, 4, 4), 7.0))
    np.testing.assert_array_equal(ad.maxpool2d(x, 2).data, np.full((1, 2, 2, 2), 7.0))


def test_maxpool_gradient_routes_to_argmax():
    x = Tensor([[[[1.0, 2.0], [3.0, 4.0]]]], requires_grad=True)

    def build(tape):
        return ad.sum_all(ad.maxpool2d(x, 2, tape=tape), tape=tape)

    (gx,) = grad_of(build, x)
    np.testing.assert_array_equal(gx, [[[[0.0, 0.0], [0.0, 1.0]]]])


def test_maxpool_tie_routes_to_first_in_scan_order():
    x = Tensor(np.full((1, 1, 2, 2), 5.0), requires_grad=True)

    def build(tape):
        return ad.sum_all(ad.maxpool2d(x, 2, tape=tape), tape=tape)

    (gx,) = grad_of(build, x)
    np.testing.assert_array_equal(gx, [[[[1.0, 0.0], [0.0, 0.0]]]])


def test_maxpool_window_too_large():
    with pytest.raises(ValueError, match="pool window 3 does not tile the 2x2 map"):
        ad.maxpool2d(Tensor(np.zeros((1, 1, 2, 2))), 3)


@pytest.mark.parametrize("window,h,w", [(2, 5, 4), (2, 4, 5), (3, 4, 4)])
@pytest.mark.parametrize("chwn", [False, True])
def test_maxpool_rejects_a_map_its_window_does_not_tile(window, h, w, chwn):
    x = np.zeros((2, 3, h, w), np.float32)
    with pytest.raises(ValueError, match=f"pool window {window} does not tile the {h}x{w} map"):
        ad.maxpool2d(Tensor(chwn_memory(x) if chwn else x), window)


def _vjp(op, x, g):
    """Run op(tensor, tape) on x and pull the upstream gradient g back to x;
    both arrays are passed in the layout given."""
    tape, t = Tape(), Tensor(x, requires_grad=True, dtype=x.dtype)
    out = op(t, tape)
    return out.data, ad.backward(tape, out, g)[t]


def test_maxpool_signed_zero_tie_keeps_plain_max():
    x = np.array([[[[-0.0, 0.0], [-1.0, -2.0]]]], dtype=np.float32)
    recorded, gx = _vjp(lambda t, tape: ad.maxpool2d(t, 2, tape=tape), x,
                        np.ones((1, 1, 1, 1), dtype=np.float32))
    plain = ad.maxpool2d(Tensor(x), 2).data
    assert not np.signbit(plain).any() and not np.signbit(recorded).any()
    np.testing.assert_array_equal(gx, [[[[1.0, 0.0], [0.0, 0.0]]]])


def _pool_reference(x, window, g):
    """Per-window max over windows that tile the input (stride = window), and
    each output's g added at its first row-major argmax."""
    n, c, h, w = x.shape
    ho, wo = h // window, w // window
    out = np.empty((n, c, ho, wo), dtype=x.dtype)
    gx = np.zeros_like(x)
    for b, ch, i, j in np.ndindex(n, c, ho, wo):
        win = x[b, ch, i * window: (i + 1) * window, j * window: (j + 1) * window]
        out[b, ch, i, j] = win.max()
        r, s = divmod(int(win.argmax()), window)
        gx[b, ch, i * window + r, j * window + s] += g[b, ch, i, j]
    return out, gx


@st.composite
def _pool_cases(draw):
    """Tie-heavy inputs: small integers and both signed zeros, on maps of up to 7
    pixels that the window tiles; chwn asks for the input and upstream gradient
    in CHWN memory, as a tape holds them, else they are row-major."""
    window = draw(st.integers(1, 3))
    n, c = draw(st.integers(1, 2)), draw(st.integers(1, 2))
    ho, wo = draw(st.integers(1, 7 // window)), draw(st.integers(1, 7 // window))
    x = draw(hnp.arrays(np.float32, (n, c, ho * window, wo * window),
                        elements=st.sampled_from([-2.0, -1.0, -0.0, 0.0, 1.0, 2.0])))
    g = draw(hnp.arrays(np.float32, (n, c, ho, wo),
                        elements=st.integers(-3, 3).map(float)))
    return x, window, g, draw(st.booleans())


@settings(max_examples=200, deadline=None)
@given(_pool_cases())
def test_maxpool_forward_equals_window_max(case):
    x, window, g, chwn = case
    ref, _ = _pool_reference(x, window, g)
    x_in, g_in = (chwn_memory(x), chwn_memory(g)) if chwn else (x, g)
    recorded, _ = _vjp(lambda t, tape: ad.maxpool2d(t, window, tape=tape), x_in, g_in)
    for out in (ad.maxpool2d(Tensor(x_in), window).data, recorded):
        assert is_chwn_memory(out)
        np.testing.assert_array_equal(out, ref)
        np.testing.assert_array_equal(np.signbit(out), np.signbit(ref))


@settings(max_examples=200, deadline=None)
@given(_pool_cases())
def test_maxpool_backward_routes_to_first_argmax(case):
    x, window, g, chwn = case
    _, ref = _pool_reference(x, window, g)
    x_in, g_in = (chwn_memory(x), chwn_memory(g)) if chwn else (x, g)
    _, gx = _vjp(lambda t, tape: ad.maxpool2d(t, window, tape=tape), x_in, g_in)
    assert is_chwn_memory(gx)
    np.testing.assert_array_equal(gx, ref)
    np.testing.assert_array_equal(np.signbit(gx), np.signbit(ref))


# ---------------------------------------------------------------------------
# conv2d against a row-major im2col reference


def _conv_reference(x, weights, bias, g):
    """Row-major im2col: the forward (N*ho*wo, C*kh*kw) @ (C*kh*kw, O) + bias,
    the input gradient (N*ho*wo, O) @ (O, C*kh*kw) folded back one tap at a
    time, and the weight and bias gradients from the upstream gradient as an
    (O, N*ho*wo) matrix and the same columns, both in (ho, wo, N) order: the
    weight gradient sums them in that order, and the bias gradient is numpy's
    row sum of that matrix."""
    n, c, h, w = x.shape
    o, _, kh, kw = weights.shape
    ho, wo = g.shape[2:]
    windows = np.lib.stride_tricks.sliding_window_view(x, (kh, kw), axis=(2, 3))
    cols = windows.transpose(0, 2, 3, 1, 4, 5)
    cols = cols.reshape(n * ho * wo, c * kh * kw)
    out = (cols @ weights.reshape(o, -1).T + bias).reshape(n, ho, wo, o)
    gmat = g.transpose(0, 2, 3, 1).reshape(n * ho * wo, o)
    gcols = (gmat @ weights.reshape(o, -1)).reshape(n, ho, wo, c, kh, kw)
    gx = np.zeros(x.shape, dtype=g.dtype)
    for p in range(kh):
        for q in range(kw):
            gx[:, :, p: p + ho, q: q + wo] += gcols[..., p, q].transpose(0, 3, 1, 2)
    cols = cols.reshape(n, ho * wo, -1).transpose(1, 0, 2).reshape(n * ho * wo, -1)
    gmat = gmat.reshape(n, ho * wo, o).transpose(1, 0, 2).reshape(n * ho * wo, o)
    gw = (gmat.T @ cols).reshape(weights.shape)
    return out.transpose(0, 3, 1, 2), gx, gw, np.ascontiguousarray(gmat.T).sum(axis=1)


def _conv_case(x_shape, w_shape, sample, weights_grad=True, x_chwn=False):
    """conv2d's (forward, input, weight and bias gradients) and the reference
    ones, for a sampled input, weights, bias and upstream gradient.

    weights_grad=False runs the evaluation tape, where only the input takes a
    gradient; both parameter gradients are then None on both sides. x_chwn
    passes the input in CHWN memory, as every conv after the first gets it
    there; the upstream gradient always comes in the output's layout.
    """
    ho = x_shape[2] - w_shape[2] + 1
    wo = x_shape[3] - w_shape[3] + 1
    x, weights, bias = sample(x_shape), sample(w_shape), sample(w_shape[:1])
    g = sample((x_shape[0], w_shape[0], ho, wo))
    tape = Tape()
    inputs = (Tensor(chwn_memory(x) if x_chwn else x, requires_grad=True),
              *(Tensor(a, requires_grad=weights_grad) for a in (weights, bias)))
    out = ad.conv2d(*inputs, tape=tape)
    g_in = np.empty_like(out.data)
    g_in[...] = g
    grads = ad.backward(tape, out, g_in)
    grads = [grads.get(t) for t in inputs]
    ref = _conv_reference(x, weights, bias, g)
    return (out.data, *grads), ref if weights_grad else ref[:2] + (None, None)


# (weights_grad, x_chwn): the training tape, and the evaluation tape's first
# conv (an NCHW network input) and later ones (CHWN activations)
CONV_TAPES = [(True, False), (False, False), (False, True)]


@settings(max_examples=100, deadline=None)
@given(n=st.integers(1, 3), c=st.integers(1, 3), o=st.integers(1, 4),
       kh=st.integers(1, 3), kw=st.integers(1, 3),
       extra_h=st.integers(0, 5), extra_w=st.integers(0, 5), seed=st.integers(0, 2**16),
       tape=st.sampled_from(CONV_TAPES))
def test_conv2d_input_grad_equals_im2col_reference(n, c, o, kh, kw,
                                                    extra_h, extra_w, seed, tape):
    # small integers keep every product and sum exact, whatever kernel
    # BLAS picks for degenerate (vector) shapes; the forward and the
    # parameter gradients are checked too, on the training and evaluation tapes
    rng = np.random.default_rng(seed)
    ours, ref = _conv_case(
        (n, c, kh + extra_h, kw + extra_w), (o, c, kh, kw),
        lambda shape: rng.integers(-4, 5, size=shape).astype(np.float32), *tape,
    )
    assert is_chwn_memory(ours[0])
    for got, want in zip(ours, ref):
        assert (got is None) == (want is None)
        if got is not None:
            np.testing.assert_array_equal(got, want)


MODEL_CONV_SHAPES = [
    ((1, 1, 28, 28), (10, 1, 5, 5)),  # mnist conv1, one image
    ((256, 1, 28, 28), (10, 1, 5, 5)),  # mnist conv1, N*ho*wo = 147,456 rows
    ((256, 10, 12, 12), (20, 10, 5, 5)),  # mnist conv2 at the evaluation chunk
    ((64, 3, 32, 32), (6, 3, 5, 5)),  # cifar conv1 at the training batch
    ((64, 6, 14, 14), (16, 6, 5, 5)),  # cifar conv2 at the training batch
]
CIFAR_TRAINING_SHAPES = MODEL_CONV_SHAPES[3:]


def _normal_conv_case(x_shape, w_shape, weights_grad=True, x_chwn=False):
    rng = np.random.default_rng(0)
    return _conv_case(x_shape, w_shape,
                      lambda shape: rng.normal(size=shape).astype(np.float32),
                      weights_grad, x_chwn)


@pytest.mark.parametrize("x_shape,w_shape", MODEL_CONV_SHAPES)
def test_conv2d_input_grad_bits_equal_im2col_at_model_shapes(x_shape, w_shape):
    for tape in CONV_TAPES:
        (_, gx, _, _), (_, ref, _, _) = _normal_conv_case(x_shape, w_shape, *tape)
        np.testing.assert_array_equal(gx, ref)


@pytest.mark.parametrize("x_shape,w_shape", MODEL_CONV_SHAPES)
def test_conv2d_forward_bits_equal_row_major_im2col_at_model_shapes(x_shape, w_shape):
    for weights_grad, x_chwn in CONV_TAPES:
        (out, _, gw, gb), (ref_out, _, ref_gw, ref_gb) = _normal_conv_case(
            x_shape, w_shape, weights_grad, x_chwn)
        assert is_chwn_memory(out)
        np.testing.assert_array_equal(out, ref_out)
        if weights_grad and (x_shape, w_shape) in CIFAR_TRAINING_SHAPES:
            # the parameter gradients SGD reads, at the shapes training runs,
            # summed in (ho, wo, N) order
            np.testing.assert_array_equal(gw, ref_gw)
            np.testing.assert_array_equal(gb, ref_gb)


@pytest.mark.parametrize("x_chwn", [False, True])
def test_conv2d_layout_bits_hold_where_a_small_gemm_has_a_short_tail(x_chwn):
    # cifar conv2 at a batch of two: 200 GEMM columns, 8 past a multiple of 16.
    # OpenBLAS rounds those last columns of a small sgemm apart, so the forward
    # matches the row-major reference on no column order; both tapes run the same
    # CHWN GEMM with (ho, wo, N) columns here, so they agree with each other
    shapes = (2, 6, 14, 14), (16, 6, 5, 5)
    (out, gx, _, _), _ = _normal_conv_case(*shapes, weights_grad=False, x_chwn=x_chwn)
    (train_out, train_gx, _, _), _ = _normal_conv_case(*shapes)
    assert is_chwn_memory(out)
    np.testing.assert_array_equal(out, train_out)
    np.testing.assert_array_equal(gx, train_gx)


def test_conv2d_training_layout_and_parameter_gradient_bits_off_a_multiple_of_16():
    # cifar conv2 at a training batch of two (200 columns): the output is CHWN,
    # and the parameter gradients sum in (ho, wo, N) order
    (out, _, gw, gb), (_, _, ref_gw, ref_gb) = _normal_conv_case((2, 6, 14, 14),
                                                                 (16, 6, 5, 5))
    assert is_chwn_memory(out) and not out.flags.c_contiguous
    np.testing.assert_array_equal(gw, ref_gw)
    np.testing.assert_array_equal(gb, ref_gb)


@pytest.mark.parametrize("x_shape", [(1, 3, 8, 8), (3, 1, 8, 8), (1, 1, 8, 8)])
def test_layouts_agree_at_batch_one_and_channel_one(x_shape):
    # at a batch of one, NCHW and CHWN memory are one array; at one channel
    # only the batch and pixel axes trade places. 5x5 kernels give 16*N columns
    rng = np.random.default_rng(sum(x_shape))

    def sample(shape):
        return rng.integers(-4, 5, size=shape).astype(np.float32)

    for weights_grad, x_chwn in CONV_TAPES:
        ours, ref = _conv_case(x_shape, (4, x_shape[1], 5, 5), sample, weights_grad, x_chwn)
        assert is_chwn_memory(ours[0])
        for got, want in zip(ours[:2], ref[:2]):
            np.testing.assert_array_equal(got, want)
    x = rng.choice(np.array([-1.0, -0.0, 0.0, 1.0], np.float32), size=x_shape)
    g = sample(x_shape[:2] + (4, 4))
    ref_out, ref_gx = _pool_reference(x, 2, g)
    for chwn in (False, True):
        x_in, g_in = (chwn_memory(x), chwn_memory(g)) if chwn else (x, g)
        out, gx = _vjp(lambda t, tape: ad.maxpool2d(t, 2, tape=tape), x_in, g_in)
        assert is_chwn_memory(out) and is_chwn_memory(gx)
        for got, want in ((out, ref_out), (gx, ref_gx)):
            np.testing.assert_array_equal(got, want)
            np.testing.assert_array_equal(np.signbit(got), np.signbit(want))


@pytest.mark.parametrize("n", [1, 2, 3, 256])
@pytest.mark.parametrize("first,then", [(0, 2), (2, 0)])
def test_conv2d_results_outlive_a_following_call(n, first, then):
    # conv2d reuses a per-thread scratch buffer for its columns and its input
    # gradient's taps; neither result may be a view of it, at a batch of one too
    rng = np.random.default_rng(n)

    def call(x_shape, w_shape):
        x_shape = (n,) + x_shape[1:]
        x = Tensor(rng.normal(size=x_shape).astype(np.float32), requires_grad=True)
        w, b = (Tensor(rng.normal(size=s).astype(np.float32)) for s in (w_shape, w_shape[:1]))
        tape = Tape()
        out = ad.conv2d(x, w, b, tape=tape)
        g = rng.normal(size=out.shape).astype(np.float32)
        return out.data, ad.backward(tape, out, g)[x]

    results = call(*MODEL_CONV_SHAPES[first])
    saved = [a.tobytes() for a in results]
    following = call(*MODEL_CONV_SHAPES[then])
    assert [a.tobytes() for a in results] == saved
    for a in results:
        assert not any(np.shares_memory(a, b) for b in following)


# ---------------------------------------------------------------------------
# dense


def test_dense_identity():
    x = Tensor(np.array([[1.0, 2.0, 3.0]]))
    out = ad.dense(x, Tensor(np.eye(3)), Tensor(np.zeros(3)))
    np.testing.assert_array_equal(out.data, x.data)


def test_dense_hand_example():
    out = ad.dense(Tensor([[1.0, 2.0]]), Tensor([[1.0], [1.0]]), Tensor([3.0]))
    np.testing.assert_array_equal(out.data, [[6.0]])


def test_dense_zero_input_emits_bias():
    out = ad.dense(Tensor(np.zeros((3, 4))), Tensor(np.ones((4, 2))), Tensor([5.0, -1.0]))
    np.testing.assert_array_equal(out.data, np.tile([5.0, -1.0], (3, 1)))


def test_dense_dimension_mismatch():
    with pytest.raises(ValueError, match="dimension mismatch"):
        ad.dense(Tensor(np.zeros((1, 3))), Tensor(np.zeros((4, 2))), Tensor(np.zeros(2)))


# ---------------------------------------------------------------------------
# srelu / activations


def test_srelu_definition():
    out = ad.srelu(Tensor([-1.0, 0.0, 3.0]), 2.0)
    np.testing.assert_array_equal(out.data, [0.0, 0.0, 6.0])


def test_srelu_slope_one_is_relu():
    x = Tensor(np.random.default_rng(3).normal(size=(4, 7)))
    np.testing.assert_array_equal(ad.srelu(x, 1.0).data, np.maximum(x.data, 0))


def test_srelu_forward_and_local_derivative():
    x = Tensor([2.0], requires_grad=True)

    def build(tape):
        return ad.sum_all(ad.srelu(x, 5.0, tape=tape), tape=tape)

    tape = Tape()
    out = ad.srelu(x, 5.0, tape=tape)
    assert out.data[0] == 10.0
    (gx,) = grad_of(build, x)
    assert gx[0] == 5.0


def test_srelu_rejects_negative_slope():
    with pytest.raises(ValueError, match="non-negative"):
        ad.srelu(Tensor([1.0]), -0.5)


@given(
    st.floats(0.0, 50.0),
    st.lists(st.floats(-10, 10, allow_nan=False, width=32), min_size=1, max_size=30),
)
def test_srelu_scaling_identities(slope, values):
    x = Tensor(np.array(values, dtype=np.float32))
    left = ad.srelu(x, slope).data
    # slope * srelu(1, x), within 1 ulp of the direct form
    via_unit = np.float32(slope) * ad.srelu(x, 1.0).data
    np.testing.assert_allclose(left, via_unit, rtol=1.2e-7, atol=0)
    # max(0, slope * x) is exactly the same set of floats
    np.testing.assert_array_equal(left, np.maximum(0, np.float32(slope) * x.data))


def test_activation_values():
    assert ad.activation(Tensor([0.0]), "sigmoid").data[0] == 0.5
    assert ad.activation(Tensor([0.0]), "tanh").data[0] == 0.0
    assert np.isclose(ad.activation(Tensor([-1.0]), "leaky_relu").data[0], -0.01)


def test_activation_unknown_kind():
    with pytest.raises(ValueError, match="unknown activation"):
        ad.activation(Tensor([0.0]), "swish")


@given(st.lists(st.floats(-30, 30, allow_nan=False, width=32), min_size=1, max_size=40))
def test_activations_finite_on_finite_input(values):
    x = Tensor(np.array(values, dtype=np.float32), requires_grad=True)
    for kind in ad.ACTIVATION_KINDS:
        tape = Tape()
        y = ad.activation(x, kind, tape=tape)
        assert np.isfinite(y.data).all()
        g = ad.backward(tape, ad.sum_all(y, tape=tape))
        assert np.isfinite(g[x]).all()


# ---------------------------------------------------------------------------
# softmax cross-entropy


def test_ce_two_equal_logits():
    loss = ad.softmax_cross_entropy(Tensor([[0.0, 0.0]]), np.array([0]))
    assert np.isclose(loss.item(), np.log(2), atol=1e-6)


def test_ce_extreme_logits_stable():
    loss = ad.softmax_cross_entropy(Tensor([[1000.0, 0.0]]), np.array([0]))
    assert loss.item() == 0.0


def test_ce_gradient_is_softmax_minus_onehot():
    rng = np.random.default_rng(11)
    logits_data = rng.normal(size=(5, 10)).astype(np.float32)
    labels = rng.integers(0, 10, size=5)
    logits = Tensor(logits_data, requires_grad=True)

    def build(tape):
        return ad.softmax_cross_entropy(logits, labels, tape=tape)

    (g,) = grad_of(build, logits)
    expected = ad.softmax(logits_data.astype(np.float64))
    expected[np.arange(5), labels] -= 1.0
    expected /= 5
    np.testing.assert_allclose(g, expected, atol=1e-7)


def test_ce_nonnegative_and_uniform_equals_log_c():
    rng = np.random.default_rng(2)
    loss = ad.softmax_cross_entropy(
        Tensor(rng.normal(size=(6, 10)).astype(np.float32)), rng.integers(0, 10, 6)
    )
    assert loss.item() >= 0.0
    for n in (1, 4):
        uniform = Tensor(np.zeros((n, 10), dtype=np.float32))
        loss = ad.softmax_cross_entropy(uniform, np.zeros(n, dtype=np.int64))
        assert loss.data == np.float32(np.log(np.float32(10.0)))


def test_ce_label_out_of_range():
    with pytest.raises(ValueError, match="out of range"):
        ad.softmax_cross_entropy(Tensor(np.zeros((1, 3))), np.array([3]))


def test_soft_ce_matches_hard_ce_on_onehot_targets():
    rng = np.random.default_rng(8)
    logits_data = rng.normal(size=(4, 6)).astype(np.float32)
    labels = rng.integers(0, 6, 4)
    onehot = np.zeros((4, 6), dtype=np.float32)
    onehot[np.arange(4), labels] = 1.0
    results = []
    for loss_fn, targets in ((ad.softmax_cross_entropy, labels),
                             (ad.soft_cross_entropy, onehot)):
        x = Tensor(logits_data, requires_grad=True)
        tape = Tape()
        loss = loss_fn(x, targets, tape=tape)
        results.append((loss.data.tobytes(), ad.backward(tape, loss)[x].tobytes()))
    assert results[0] == results[1]  # the same bytes: one shared body


# ---------------------------------------------------------------------------
# backward contracts


def test_backward_sum_gives_ones():
    x = Tensor(np.random.default_rng(0).normal(size=(3, 4)), requires_grad=True)

    def build(tape):
        return ad.sum_all(x, tape=tape)

    (gx,) = grad_of(build, x)
    np.testing.assert_array_equal(gx, np.ones((3, 4), dtype=gx.dtype))


def test_backward_srelu_example():
    x = Tensor([2.0, -2.0], requires_grad=True)
    alpha = 3.5

    def build(tape):
        return ad.sum_all(ad.srelu(x, alpha, tape=tape), tape=tape)

    (gx,) = grad_of(build, x)
    np.testing.assert_array_equal(gx, [alpha, 0.0])


def test_backward_rejects_nonscalar_loss():
    tape = Tape()
    x = Tensor([1.0, 2.0], requires_grad=True)
    y = ad.srelu(x, 1.0, tape=tape)
    with pytest.raises(ValueError, match="scalar"):
        ad.backward(tape, y)


def test_backward_rejects_a_seed_of_another_shape():
    tape = Tape()
    x = Tensor([1.0, 2.0], requires_grad=True)
    y = ad.srelu(x, 1.0, tape=tape)
    for seed in (np.ones(3), np.ones((2, 1)), 1.0):  # a seed is not broadcast
        with pytest.raises(ValueError, match="seed shape"):
            ad.backward(tape, y, seed)


def test_backward_seeded_with_one_equals_the_unseeded_pass():
    rng = np.random.default_rng(3)
    tape = Tape()
    x = Tensor(rng.normal(size=(3, 2, 6, 6)).astype(np.float32), requires_grad=True)
    w = Tensor(rng.normal(size=(4, 2, 3, 3)).astype(np.float32), requires_grad=True)
    fc = Tensor(rng.normal(size=(16, 5)).astype(np.float32), requires_grad=True)
    h = ad.conv2d(x, w, Tensor(np.zeros(4)), tape=tape)
    h = ad.flatten(ad.srelu(ad.maxpool2d(h, 2, tape=tape), 2.0, tape=tape), tape=tape)
    logits = ad.dense(h, fc, Tensor(np.zeros(5)), tape=tape)
    loss = ad.softmax_cross_entropy(logits, np.array([0, 4, 2]), tape=tape)
    unseeded = ad.backward(tape, loss)
    for seed in (1, np.float32(1.0), np.ones((), np.float64)):
        seeded = ad.backward(tape, loss, seed)
        for t in (x, w, fc):
            assert seeded[t].tobytes() == unseeded[t].tobytes()


def test_backward_rejects_off_tape_loss():
    tape = Tape()
    loss = Tensor(1.0)
    with pytest.raises(ValueError, match="not produced"):
        ad.backward(tape, loss)
    x = Tensor([1.0, 2.0], requires_grad=True)
    ad.srelu(x, 1.0, tape=tape)
    other = ad.sum_all(x, tape=Tape())  # produced, but through another tape
    for out in (loss, x, other):
        with pytest.raises(ValueError, match="not produced"):
            ad.backward(tape, out, np.ones(out.shape))


@pytest.mark.parametrize("op, shape", [
    (lambda x, tape: ad.maxpool2d(x, 2, tape=tape), (2, 1, 4, 4)),
    (lambda x, tape: ad.srelu(x, 2.0, tape=tape), (2, 1, 4, 4)),
    (lambda x, tape: ad.flatten(x, tape=tape), (2, 1, 4, 4)),
    (lambda x, tape: ad.sum_all(x, tape=tape), (2, 1, 4, 4)),
    (lambda x, tape: ad.take(x, 5, tape=tape), (2, 1, 4, 4)),
    (lambda x, tape: ad.activation(x, "tanh", tape=tape), (2, 1, 4, 4)),
    (lambda x, tape: ad.softmax_cross_entropy(x, np.array([0, 3]), tape=tape), (2, 5)),
    (lambda x, tape: ad.soft_cross_entropy(x, np.full((2, 5), 0.2), tape=tape), (2, 5)),
], ids=["maxpool2d", "srelu", "flatten", "sum_all", "take", "activation",
        "softmax_cross_entropy", "soft_cross_entropy"])
def test_a_one_input_op_is_recorded_only_when_its_input_takes_a_gradient(op, shape):
    # the one recording rule, so each one-input backward owes its input a gradient
    data = np.random.default_rng(4).normal(size=shape).astype(np.float32)
    for requires_grad in (False, True):
        tape, x = Tape(), Tensor(data, requires_grad=requires_grad)
        out = op(x, tape)
        assert [(rec.out, rec.inputs) for rec in tape._records] == (
            [(out, (x,))] if requires_grad else [])
        assert out.requires_grad == requires_grad


def test_backward_bit_identical_across_runs():
    rng = np.random.default_rng(1)
    data = rng.normal(size=(2, 3, 8, 8)).astype(np.float32)
    w = rng.normal(size=(4, 3, 3, 3)).astype(np.float32)
    b = rng.normal(size=4).astype(np.float32)

    def run():
        tape = Tape()
        x = Tensor(data, requires_grad=True)
        h = ad.conv2d(x, Tensor(w, requires_grad=True), Tensor(b), tape=tape)
        h = ad.maxpool2d(h, 2, tape=tape)
        h = ad.srelu(h, 2.0, tape=tape)
        loss = ad.sum_all(h, tape=tape)
        return ad.backward(tape, loss)[x]

    first, second = run(), run()
    assert first.tobytes() == second.tobytes()


def test_fanout_gradients_accumulate():
    x = Tensor([1.0, -1.0, 2.0], requires_grad=True)

    def build(tape):
        left = ad.srelu(x, 2.0, tape=tape)
        right = ad.srelu(x, 3.0, tape=tape)
        return ad.sum_all(ad.add(left, right, tape=tape), tape=tape)

    (gx,) = grad_of(build, x)
    np.testing.assert_array_equal(gx, [5.0, 0.0, 5.0])


def test_add_shape_mismatch():
    with pytest.raises(ValueError, match="shape mismatch"):
        ad.add(Tensor([1.0]), Tensor([1.0, 2.0]))


def test_unreachable_tensor_has_no_gradient():
    tape = Tape()
    x = Tensor([1.0], requires_grad=True)
    unused = Tensor([2.0], requires_grad=True)
    loss = ad.sum_all(ad.srelu(x, 1.0, tape=tape), tape=tape)
    grads = ad.backward(tape, loss)
    assert unused not in grads
    with pytest.raises(KeyError):
        grads[unused]


# ---------------------------------------------------------------------------
# finite-difference oracle


def test_oracle_sum_of_squares():
    def f(t):
        return float((np.asarray(t) ** 2).sum())

    g = finite_difference_oracle(f, Tensor([3.0], dtype=np.float64), step=1e-5)
    np.testing.assert_allclose(g.data, [6.0], atol=1e-8)


def test_oracle_constant_function():
    g = finite_difference_oracle(lambda t: 4.2, Tensor(np.ones((2, 3))), step=1e-3)
    np.testing.assert_array_equal(g.data, np.zeros((2, 3)))


def test_oracle_linear_exact():
    coeff = np.array([1.5, -2.0, 0.25])

    def f(t):
        return float(np.asarray(t, dtype=np.float64) @ coeff)

    g = finite_difference_oracle(f, Tensor(np.zeros(3, dtype=np.float64)), step=0.1)
    np.testing.assert_allclose(g.data, coeff, atol=1e-12)


def test_oracle_rejects_bad_step():
    with pytest.raises(ValueError, match="positive"):
        finite_difference_oracle(lambda t: 0.0, Tensor([1.0]), step=0.0)


# ---------------------------------------------------------------------------
# autodiff vs finite differences, per operator
#
# The oracle runs on a float64 twin of each configuration; the autodiff side
# runs at the precision under test. Inputs are resampled so no coordinate
# sits within 2*step of a rectifier kink or pooling tie.


def _safe_normal(rng, shape, step, kinked: bool):
    for _ in range(50):
        x = rng.normal(size=shape)
        if not kinked or np.abs(x).min() > 2 * step:
            return x
    raise AssertionError("could not sample kink-free input")


def _weighted_sum(out, weights, tape):
    """Scalarize an op output with a fixed per-feature projection, through the tape.

    weights has the output's per-image shape; rows share the projection.
    """
    flat = ad.flatten(out, tape=tape)
    wcol = Tensor(weights.reshape(-1, 1), dtype=out.data.dtype)
    zero = Tensor(np.zeros(1), dtype=out.data.dtype)
    return ad.sum_all(ad.dense(flat, wcol, zero, tape=tape), tape=tape)


def _check(build64, build_at, x64, dtype, tol, step):
    """Compare autodiff at dtype against a float64 finite-difference oracle."""
    fd = finite_difference_oracle(build64, Tensor(x64, dtype=np.float64), step).data

    tape = Tape()
    x = Tensor(x64, requires_grad=True, dtype=dtype)
    loss = build_at(x, tape)
    got = ad.backward(tape, loss)[x].astype(np.float64)

    scale = max(np.abs(fd).max(), 1e-12)
    assert np.abs(got - fd).max() / scale < tol


@pytest.mark.parametrize("dtype,tol,step", [(np.float32, 1e-3, 1e-3), (np.float64, 1e-6, 1e-5)])
def test_gradcheck_operators(dtype, tol, step):
    rng = np.random.default_rng(99)

    # conv2d
    w = rng.normal(size=(3, 2, 3, 3))
    b = rng.normal(size=3)
    proj = rng.normal(size=(3, 3, 3))
    x0 = rng.normal(size=(1, 2, 5, 5))

    def conv_loss(t, tape=None):
        wt = Tensor(w, dtype=t.data.dtype)
        bt = Tensor(b, dtype=t.data.dtype)
        out = ad.conv2d(t, wt, bt, tape=tape)
        return _weighted_sum(out, proj, tape)

    _check(lambda t: conv_loss(t, Tape()), conv_loss, x0, dtype, tol, step)

    # maxpool2d (resample until windows have clear margins)
    for _ in range(50):
        xp = rng.normal(size=(1, 2, 6, 6))
        wins = pool_windows(xp, 2).reshape(-1, 4)
        part = np.partition(wins, -2, axis=1)
        if (part[:, -1] - part[:, -2]).min() > 4 * step:
            break
    pool_proj = rng.normal(size=(2, 3, 3))

    def pool_loss(t, tape=None):
        out = ad.maxpool2d(t, 2, tape=tape)
        return _weighted_sum(out, pool_proj, tape)

    _check(lambda t: pool_loss(t, Tape()), pool_loss, xp, dtype, tol, step)

    # dense
    dw = rng.normal(size=(6, 4))
    db = rng.normal(size=4)
    dproj = rng.normal(size=(4,))
    xd = rng.normal(size=(2, 6))

    def dense_loss(t, tape=None):
        out = ad.dense(t, Tensor(dw, dtype=t.data.dtype), Tensor(db, dtype=t.data.dtype), tape=tape)
        return _weighted_sum(out, dproj, tape)

    _check(lambda t: dense_loss(t, Tape()), dense_loss, xd, dtype, tol, step)

    # srelu and the elementwise activations
    for kind in ("srelu",) + ad.ACTIVATION_KINDS:
        kinked = kind in ("srelu", "leaky_relu", "elu")
        xa = _safe_normal(rng, (3, 7), step, kinked)
        aproj = rng.normal(size=(7,))

        def act_loss(t, tape=None, kind=kind):
            out = ad.srelu(t, 2.5, tape=tape) if kind == "srelu" else ad.activation(t, kind, tape=tape)
            return _weighted_sum(out, aproj, tape)

        _check(lambda t: act_loss(t, Tape()), act_loss, xa, dtype, tol, step)

    # softmax cross-entropy
    xl = rng.normal(size=(4, 10))
    labels = rng.integers(0, 10, size=4)

    def ce_loss(t, tape=None):
        return ad.softmax_cross_entropy(t, labels, tape=tape)

    _check(lambda t: ce_loss(t, Tape()), ce_loss, xl, dtype, tol, step)
