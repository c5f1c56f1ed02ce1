"""Operator-level tests: frozen examples, gradient oracles, and invariants."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from srelu_defense import autodiff as ad
from srelu_defense.autodiff import Tape, Tensor


def grad_of(build, *tensors):
    """Run build(tape) -> scalar loss and return gradients of the tensors."""
    tape = Tape()
    loss = build(tape)
    gmap = ad.backward(tape, loss)
    return [gmap[t].data for t in tensors]


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
    out = ad.conv2d(x, w, b, stride=1)
    np.testing.assert_array_equal(out.data, [[[[10.0]]]])


def test_conv2d_zero_kernel_emits_bias():
    rng = np.random.default_rng(0)
    x = Tensor(rng.uniform(size=(2, 3, 6, 6)))
    w = Tensor(np.zeros((4, 3, 3, 3)))
    b = Tensor([1.5, -2.0, 0.0, 3.0])
    out = ad.conv2d(x, w, b).data
    for c in range(4):
        np.testing.assert_allclose(out[:, c], b.data[c])


def test_conv2d_output_dims_and_stride():
    x = Tensor(np.zeros((1, 1, 9, 7)))
    w = Tensor(np.zeros((2, 1, 3, 3)))
    b = Tensor(np.zeros(2))
    assert ad.conv2d(x, w, b, stride=2).shape == (1, 2, 4, 3)


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


def test_maxpool_overlapping_stride_accumulates():
    x = Tensor(np.arange(16.0).reshape(1, 1, 4, 4), requires_grad=True)

    def build(tape):
        return ad.sum_all(ad.maxpool2d(x, 2, stride=1, tape=tape), tape=tape)

    (gx,) = grad_of(build, x)
    # bottom-right corner (value 15) wins 1 window, 14 wins 1, 13 wins 1, ...
    assert gx[0, 0, 3, 3] == 1.0
    assert gx.sum() == 9.0  # one unit per output cell


def test_maxpool_window_too_large():
    with pytest.raises(ValueError, match="larger than input"):
        ad.maxpool2d(Tensor(np.zeros((1, 1, 2, 2))), 3)


def _vjp(op, x, g):
    """Run op(tensor, tape) on x and pull the upstream gradient g back to x."""
    tape = Tape()
    out = op(Tensor(x, requires_grad=True, dtype=x.dtype), tape)
    rec = tape._records[-1]
    needs = (True,) + (False,) * (len(rec.inputs) - 1)
    return out.data, rec.backward_fn(g, needs)[0]


def test_maxpool_signed_zero_tie_keeps_plain_max():
    x = np.array([[[[-0.0, 0.0], [-1.0, -2.0]]]], dtype=np.float32)
    recorded, gx = _vjp(lambda t, tape: ad.maxpool2d(t, 2, tape=tape), x,
                        np.ones((1, 1, 1, 1), dtype=np.float32))
    plain = ad.maxpool2d(Tensor(x), 2).data
    assert not np.signbit(plain).any() and not np.signbit(recorded).any()
    np.testing.assert_array_equal(gx, [[[[1.0, 0.0], [0.0, 0.0]]]])


def _pool_reference(x, window, stride, g):
    """Per-window max, and each output's g added at its first row-major argmax."""
    n, c, h, w = x.shape
    ho, wo = (h - window) // stride + 1, (w - window) // stride + 1
    out = np.empty((n, c, ho, wo), dtype=x.dtype)
    gx = np.zeros_like(x)
    for b, ch, i, j in np.ndindex(n, c, ho, wo):
        win = x[b, ch, i * stride: i * stride + window, j * stride: j * stride + window]
        out[b, ch, i, j] = win.max()
        r, s = divmod(int(win.argmax()), window)
        gx[b, ch, i * stride + r, j * stride + s] += g[b, ch, i, j]
    return out, gx


@st.composite
def _pool_cases(draw):
    """Tie-heavy inputs: small integers and both signed zeros."""
    window, stride = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    n, c = draw(st.integers(1, 2)), draw(st.integers(1, 2))
    h, w = draw(st.integers(window, 7)), draw(st.integers(window, 7))
    x = draw(hnp.arrays(np.float32, (n, c, h, w),
                        elements=st.sampled_from([-2.0, -1.0, -0.0, 0.0, 1.0, 2.0])))
    ho, wo = (h - window) // stride + 1, (w - window) // stride + 1
    # integer gradients: overlapping windows accumulate exactly in any order
    g = draw(hnp.arrays(np.float32, (n, c, ho, wo),
                        elements=st.integers(-3, 3).map(float)))
    return x, window, stride, g


@settings(max_examples=200, deadline=None)
@given(_pool_cases())
def test_maxpool_forward_equals_window_max(case):
    x, window, stride, g = case
    ref, _ = _pool_reference(x, window, stride, g)
    recorded, _ = _vjp(lambda t, tape: ad.maxpool2d(t, window, stride, tape=tape), x, g)
    for out in (ad.maxpool2d(Tensor(x), window, stride).data, recorded):
        np.testing.assert_array_equal(out, ref)
        np.testing.assert_array_equal(np.signbit(out), np.signbit(ref))


@settings(max_examples=200, deadline=None)
@given(_pool_cases())
def test_maxpool_backward_routes_to_first_argmax(case):
    x, window, stride, g = case
    _, ref = _pool_reference(x, window, stride, g)
    _, gx = _vjp(lambda t, tape: ad.maxpool2d(t, window, stride, tape=tape), x, g)
    np.testing.assert_array_equal(gx, ref)


# ---------------------------------------------------------------------------
# conv2d input gradient against an im2col reference


def _conv_input_grad_reference(weights, g, x_shape, stride):
    """im2col input gradient: (N*ho*wo, O) @ (O, C*kh*kw), then a strided fold."""
    n, c, h, w = x_shape
    o, _, kh, kw = weights.shape
    ho, wo = g.shape[2:]
    gmat = g.transpose(0, 2, 3, 1).reshape(n * ho * wo, o)
    gcols = (gmat @ weights.reshape(o, -1)).reshape(n, ho, wo, c, kh, kw)
    gx = np.zeros(x_shape, dtype=g.dtype)
    for p in range(kh):
        for q in range(kw):
            gx[:, :, p: p + (ho - 1) * stride + 1: stride,
               q: q + (wo - 1) * stride + 1: stride] += gcols[..., p, q].transpose(0, 3, 1, 2)
    return gx


def _conv_input_grad(x_shape, w_shape, stride, sample):
    """conv2d's input gradient and the im2col reference, for sampled weights and g."""
    ho = (x_shape[2] - w_shape[2]) // stride + 1
    wo = (x_shape[3] - w_shape[3]) // stride + 1
    weights = sample(w_shape)
    g = sample((x_shape[0], w_shape[0], ho, wo))
    bias = Tensor(np.zeros(w_shape[0], dtype=np.float32))
    _, gx = _vjp(lambda t, tape: ad.conv2d(t, Tensor(weights), bias, stride, tape=tape),
                 np.zeros(x_shape, dtype=np.float32), g)
    return gx, _conv_input_grad_reference(weights, g, x_shape, stride)


@settings(max_examples=100, deadline=None)
@given(n=st.integers(1, 3), c=st.integers(1, 3), o=st.integers(1, 4),
       kh=st.integers(1, 3), kw=st.integers(1, 3), stride=st.integers(1, 3),
       extra_h=st.integers(0, 5), extra_w=st.integers(0, 5), seed=st.integers(0, 2**16))
def test_conv2d_input_grad_equals_im2col_reference(n, c, o, kh, kw, stride,
                                                    extra_h, extra_w, seed):
    # small integers keep every product and sum exact, whatever kernel
    # BLAS picks for degenerate (vector) shapes
    rng = np.random.default_rng(seed)
    gx, ref = _conv_input_grad(
        (n, c, kh + extra_h, kw + extra_w), (o, c, kh, kw), stride,
        lambda shape: rng.integers(-4, 5, size=shape).astype(np.float32),
    )
    np.testing.assert_array_equal(gx, ref)


@pytest.mark.parametrize("x_shape,w_shape", [
    ((1, 1, 28, 28), (10, 1, 5, 5)),  # mnist conv1, one image
    ((256, 1, 28, 28), (10, 1, 5, 5)),  # mnist conv1, N*ho*wo = 147,456 rows
    ((256, 10, 12, 12), (20, 10, 5, 5)),  # mnist conv2 at the evaluation chunk
    ((64, 3, 32, 32), (6, 3, 5, 5)),  # cifar conv1 at the training batch
    ((64, 6, 14, 14), (16, 6, 5, 5)),  # cifar conv2 at the training batch
])
def test_conv2d_input_grad_bits_equal_im2col_at_model_shapes(x_shape, w_shape):
    rng = np.random.default_rng(0)
    gx, ref = _conv_input_grad(x_shape, w_shape, 1,
                               lambda shape: rng.normal(size=shape).astype(np.float32))
    np.testing.assert_array_equal(gx, ref)


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
        assert np.isfinite(g[x].data).all()


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
    hard = ad.softmax_cross_entropy(Tensor(logits_data), labels).item()
    soft = ad.soft_cross_entropy(Tensor(logits_data), onehot).item()
    assert np.isclose(hard, soft, atol=1e-6)


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


def test_backward_rejects_off_tape_loss():
    tape = Tape()
    loss = Tensor(1.0)
    with pytest.raises(ValueError, match="not produced"):
        ad.backward(tape, loss)


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
        return ad.backward(tape, loss)[x].data

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
    gmap = ad.backward(tape, loss)
    assert unused not in gmap
    with pytest.raises(KeyError):
        gmap[unused]


# ---------------------------------------------------------------------------
# finite-difference oracle


def test_oracle_sum_of_squares():
    def f(t):
        return float((np.asarray(t) ** 2).sum())

    g = ad.finite_difference_oracle(f, Tensor([3.0], dtype=np.float64), step=1e-5)
    np.testing.assert_allclose(g.data, [6.0], atol=1e-8)


def test_oracle_constant_function():
    g = ad.finite_difference_oracle(lambda t: 4.2, Tensor(np.ones((2, 3))), step=1e-3)
    np.testing.assert_array_equal(g.data, np.zeros((2, 3)))


def test_oracle_linear_exact():
    coeff = np.array([1.5, -2.0, 0.25])

    def f(t):
        return float(np.asarray(t, dtype=np.float64) @ coeff)

    g = ad.finite_difference_oracle(f, Tensor(np.zeros(3, dtype=np.float64)), step=0.1)
    np.testing.assert_allclose(g.data, coeff, atol=1e-12)


def test_oracle_rejects_bad_step():
    with pytest.raises(ValueError, match="positive"):
        ad.finite_difference_oracle(lambda t: 0.0, Tensor([1.0]), step=0.0)


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
    fd = ad.finite_difference_oracle(build64, Tensor(x64, dtype=np.float64), step).data

    tape = Tape()
    x = Tensor(x64, requires_grad=True, dtype=dtype)
    loss = build_at(x, tape)
    got = ad.backward(tape, loss)[x].data.astype(np.float64)

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
        wins = ad._windows(xp, 2, 2, 2).reshape(-1, 4)
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
