"""Dense tensors with tape-based reverse-mode differentiation.

Forward operators cover exactly what small image CNNs need: valid-padding
convolution, max pooling, affine layers, a family of elementwise
activations, and softmax cross-entropy losses. Every operator optionally
records itself on a ``Tape``; ``backward`` replays the tape once in reverse,
from a scalar loss or from any output seeded with its cotangent, and returns
a dict from each leaf that requested a gradient (network inputs and
parameters, which no record produced) to that gradient; every other gradient
is freed once the record that produced its tensor has read it.

Tensors are 32-bit (``DTYPE``) unless built with an explicit dtype; the
high-accuracy gradient checks build float64 tensors that way. Ops allocate
ordinary arrays on every call and keep nothing between passes except their
tape records.

OpenBLAS rounds a small GEMM apart from a large one, so a row's bits can
depend on how many rows share its batch. Every GEMM whose columns run over the
batch (conv2d's, conv2d_maxpool2d's input-gradient GEMM and dense's) pads the
batch with zero images by one rule, _gemm_batch, on every tape, training
included; every row then has the bits it has in a batch of any size.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np

DTYPE = np.float32


class Tensor:
    """A row-major n-dimensional array, the unit of computation; an NCHW activation
    may instead view (C, H, W, N) memory, batch innermost (CHWN; see conv2d).

    Values are immutable by convention once produced by an operator; only
    the training loop writes into parameter buffers, between tapes.
    """

    __slots__ = ("data", "requires_grad")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        arr = np.asarray(data, dtype=dtype or DTYPE)
        chwn = arr.ndim == 4 and arr.transpose(1, 2, 3, 0).flags.c_contiguous
        self.data = arr if arr.flags.c_contiguous or chwn else np.ascontiguousarray(arr)
        self.requires_grad = bool(requires_grad)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def item(self) -> float:
        if self.data.size != 1:
            raise ValueError(f"item() on tensor of shape {self.shape}")
        return float(self.data.reshape(()))

    def __array__(self, dtype=None, copy=None):
        return np.array(self.data, dtype=dtype, copy=copy)  # copy=False raises if it must copy

    def __repr__(self) -> str:
        grad = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}, dtype={self.data.dtype}{grad})"


class _Record:
    __slots__ = ("out", "inputs", "backward_fn")

    def __init__(self, out, inputs, backward_fn):
        self.out = out
        self.inputs = inputs
        self.backward_fn = backward_fn


class Tape:
    """Ordered record of executed operations for one reverse pass.

    Records append in execution order, so the list is already a topological
    order of the computation; the reverse pass walks it back to front and
    touches each record exactly once. An operator is recorded only when one of
    its inputs takes a gradient; its backward_fn(g, needs) returns None for each
    input whose needs entry is False. A tape is single-threaded; independent
    tapes may run concurrently over shared read-only tensors.
    """

    def __init__(self):
        self._records: list[_Record] = []

    def record(
        self,
        out: Tensor,
        inputs: Sequence[Tensor],
        backward_fn: Callable[[np.ndarray, tuple[bool, ...]], Sequence],
    ) -> None:
        self._records.append(_Record(out, tuple(inputs), backward_fn))


def _finish(out: Tensor, tape: Tape | None, inputs, backward_fn) -> Tensor:
    if tape is not None and any(t.requires_grad for t in inputs):
        out.requires_grad = True
        tape.record(out, inputs, backward_fn)
    return out


def backward(tape: Tape, out: Tensor, seed=None) -> dict[Tensor, np.ndarray]:
    """Reverse pass from out, seeded with seed, out's cotangent (out's shape, cast
    to its dtype), or with 1 if out is a scalar loss; gradients for the tape's leaves.

    Tensors hash by identity, so the result is keyed by the tensor objects
    themselves. Only leaves (tensors no record produced, such as inputs and
    parameters) have entries; a tensor a record produced loses its gradient
    once that record has read it, and a leaf out does not reach has none.

    Deterministic: the accumulation order is fixed by the tape, so repeated
    runs over identical inputs produce bit-identical gradients.
    """
    if seed is None and out.data.size != 1:
        raise ValueError(f"an unseeded pass needs a scalar loss, got shape {out.shape}")
    if seed is not None and np.shape(seed) != out.shape:
        raise ValueError(f"seed shape {np.shape(seed)} does not match output {out.shape}")
    if not any(rec.out is out for rec in tape._records):
        raise ValueError("output tensor was not produced through this tape")

    seed = np.ones_like(out.data) if seed is None else np.asarray(seed, out.data.dtype)
    grads: dict[Tensor, np.ndarray] = {out: seed}
    for rec in reversed(tape._records):
        g_out = grads.pop(rec.out, None)
        if g_out is None:
            continue
        needs = tuple(t.requires_grad for t in rec.inputs)
        for t, g in zip(rec.inputs, rec.backward_fn(g_out, needs)):
            if g is None:
                continue
            acc = grads.get(t)
            # never accumulate in place: backward functions may return views
            # of upstream gradients (reshape) or read-only broadcasts
            grads[t] = g if acc is None else acc + g
    return grads


# ---------------------------------------------------------------------------
# convolution / pooling


def _gemm_batch(rows: int, cols_per_image: int) -> int:
    """The batch every GEMM whose columns run over the images pads to with zero
    images: the smallest N >= rows with N * cols_per_image a multiple of 16, past
    OpenBLAS's short-tail rounding (measured on numpy 2.4.6's OpenBLAS 0.3.31),
    so at the built-in shapes a row has the same bits in a batch of any size."""
    return rows + -rows % (16 // math.gcd(cols_per_image, 16))


def _pad_rows(a: np.ndarray, rows: int) -> np.ndarray:
    """a with zero rows appended along axis 0 up to rows; a itself if it has as many."""
    if len(a) >= rows:
        return a
    return np.concatenate([a, np.zeros((rows - len(a),) + a.shape[1:], a.dtype)])


def conv2d(x: Tensor, weights: Tensor, bias: Tensor, tape: Tape | None = None) -> Tensor:
    """Valid-padding, stride-1 2-D convolution of an NCHW batch.

    weights are laid out (out_channels, in_channels, kh, kw); output spatial
    dims are in - k + 1. The output and the input gradient are CHWN (see Tensor).
    The input is unfolded along its width as (H, C, kw, wo, N); output row i is
    one (O, kh*C*kw) @ (kh*C*kw, wo*N) GEMM over a view of its rows i to i + kh - 1,
    so K sums in (kh, C, kw) order. Every tape pads the batch to
    _gemm_batch(rows, wo). The input gradient is _input_grad's at window 1: one
    GEMM into tap-major order, each tap added into the input. Only a weight
    gradient keeps the unfold; it sums the per-row GEMMs over rows.
    """
    if x.data.ndim != 4:
        raise ValueError(f"conv2d input must be NCHW, got shape {x.shape}")
    if weights.data.ndim != 4:
        raise ValueError(f"conv2d weights must be OIKK, got shape {weights.shape}")
    rows, c, h, w = x.shape
    o, i, kh, kw = weights.shape
    if c != i:
        raise ValueError(f"conv2d channel mismatch: input has {c}, weights expect {i}")
    if kh > h or kw > w:
        raise ValueError(f"kernel {kh}x{kw} does not fit input {h}x{w} (valid padding)")
    if bias.shape != (o,):
        raise ValueError(f"conv2d bias must have shape ({o},), got {bias.shape}")

    ho, wo = h - kh + 1, w - kw + 1
    n = _gemm_batch(rows, wo)
    k = c * kh * kw
    unfold = np.empty((h, c * kw, wo * n), x.data.dtype)
    chwn = np.ascontiguousarray(_pad_rows(x.data, n).transpose(1, 2, 3, 0))
    windows = np.lib.stride_tricks.sliding_window_view(chwn, kw, axis=2)  # (C, H, wo, N, kw)
    np.copyto(unfold.reshape(h, c, kw, wo, n), windows.transpose(1, 0, 4, 2, 3))
    row_ops = np.lib.stride_tricks.as_strided(unfold, (ho, k, wo * n), unfold.strides,
                                              writeable=False)  # output row i's operand
    out_mat = np.empty((o, ho, wo * n), np.result_type(weights.data, unfold))
    np.matmul(weights.data.transpose(0, 2, 1, 3).reshape(o, k), row_ops,
              out=out_mat.transpose(1, 0, 2))
    out_mat += bias.data[:, None, None]
    # the padding's images sliced off in (O, ho, wo, N) memory, so the output stays CHWN
    out_data = np.ascontiguousarray(out_mat.reshape(o, ho, wo, n)[..., :rows])
    out = Tensor(out_data.transpose(3, 0, 1, 2), dtype=out_data.dtype)
    kept = row_ops if tape is not None and weights.requires_grad else None

    def bw(g: np.ndarray, needs):
        gx = gw = gb = None
        gt = _pad_rows(g, n).transpose(1, 2, 3, 0).reshape(o, ho, wo * n)
        if needs[0]:  # one phase: the whole output
            gx = _input_grad(weights.data, gt.reshape(1, 1, o, ho, wo, n), x.data)
        if needs[1]:  # (kh*C*kw, wo*N) @ (wo*N, O) per output row, summed over the rows
            per_row = np.matmul(kept, gt.transpose(1, 2, 0))
            gw = per_row.sum(axis=0).T.reshape(o, kh, c, kw).transpose(0, 2, 1, 3)
        if needs[2]:
            gb = g.transpose(1, 2, 3, 0).reshape(o, -1).sum(axis=1)  # the batch's own columns
        return gx, gw, gb

    return _finish(out, tape, (x, weights, bias), bw)


def _input_grad(weights: np.ndarray, phases: np.ndarray, x: np.ndarray) -> np.ndarray:
    """A conv's input gradient, in CHWN memory, from its output's gradient split
    by position mod window into phases (window, window, O, hp, wp, N), N padded:
    one GEMM of a combined kernel, a (C, window, window, O) block per offset (u, v)
    of an input pixel from its window's corner, with the phases, each offset's
    product added into the input at stride window. At window 1 the offsets are
    conv2d's taps; past it, the sub-pixel decomposition of Shi et al. (CVPR 2016)
    in reverse."""
    window, _, o, hp, wp, n = phases.shape
    rows, c, h, w = x.shape
    kh, kw = weights.shape[2:]
    sh, sw = kh + window - 1, kw + window - 1
    combined = np.zeros((sh, sw, c, window, window, o), weights.dtype)
    for p, q in np.ndindex(window, window):  # offset (u, v) meets tap (u - p, v - q)
        combined[p:p + kh, q:q + kw, :, p, q] = weights.transpose(2, 3, 1, 0)
    combined = combined.reshape(sh * sw * c, -1)
    at = combined @ phases.reshape(window * window * o, -1)
    at = at.reshape(sh, sw, c, hp, wp, n)[..., :rows]
    gx = np.zeros((c, h, w, rows), x.dtype)
    for u, v in np.ndindex(sh, sw):
        gx[:, u:u + window * hp:window, v:v + window * wp:window] += at[u, v]
    return gx.transpose(3, 0, 1, 2)


def maxpool2d(x: Tensor, window: int, tape: Tape | None = None) -> Tensor:
    """Max pooling over square windows that tile the map (the stride is the
    window); gradient flows only to the argmax.

    The forward folds np.maximum over the window taps in row-major order.
    Ties, signed zeros included (-0.0 == 0.0), route the gradient to the
    first tap in that order that equals the max (_route). The output and the
    gradient are CHWN; a row-major x is read through its CHWN transpose.
    """
    if x.data.ndim != 4:
        raise ValueError(f"maxpool2d input must be NCHW, got shape {x.shape}")
    n, c, h, w = x.shape
    if window < 1 or h % window or w % window:
        raise ValueError(f"pool window {window} does not tile the {h}x{w} map")

    # (C, ho, window, wo, window, N): a view of CHWN memory, or of a row-major x's
    # transpose; tap (p, q) of every window is [:, :, p, :, q]
    xw = x.data.transpose(1, 2, 3, 0).reshape(c, h // window, window, w // window, window, n)
    out_v = xw[:, :, 0, :, 0].copy()
    for p, q in list(np.ndindex(window, window))[1:]:
        np.maximum(out_v, xw[:, :, p, :, q], out=out_v)
    out = Tensor(out_v.transpose(3, 0, 1, 2), dtype=out_v.dtype)

    def bw(g: np.ndarray, needs):
        return (_unroute(_route(g, xw, out_v, n), n),)

    return _finish(out, tape, (x,), bw)


def _route(g: np.ndarray, xw: np.ndarray, out_v: np.ndarray, n: int) -> np.ndarray:
    """The pooled cotangent g routed by the first-tie rule into phases (window,
    window, C, hp, wp, n): [p, q] holds g where tap (p, q) is its window's first
    tap in row-major order equal to the max, and zero elsewhere and in the
    padding's images past g's. xw is the (C, hp, window, wp, window, rows) input,
    out_v the (C, hp, wp, rows) maxes."""
    c, hp, window, wp, _, rows = xw.shape
    phases = np.empty((window, window, c, hp, wp, n), g.dtype)
    phases[..., rows:] = 0.0
    gv = g.transpose(1, 2, 3, 0)
    unclaimed = np.ones(out_v.shape, dtype=bool)
    hit = np.empty(out_v.shape, dtype=bool)
    for p, q in np.ndindex(window, window):
        np.equal(xw[:, :, p, :, q], out_v, out=hit)
        hit &= unclaimed
        unclaimed ^= hit
        np.multiply(gv, hit, out=phases[p, q, ..., :rows])
    return phases


def _unroute(phases: np.ndarray, rows: int) -> np.ndarray:
    """The gradient at the pool's input, (rows, C, H, W) in CHWN memory: the
    first rows images of phases interleaved back to full resolution. g * False is
    -0.0 where g < 0; adding +0.0 stores a zeroed sum's +0.0."""
    window, _, c, hp, wp, _ = phases.shape
    gx = np.empty((c, hp, window, wp, window, rows), phases.dtype)
    np.add(phases[..., :rows].transpose(2, 3, 0, 4, 1, 5), 0.0, out=gx)
    return gx.reshape(c, hp * window, wp * window, rows).transpose(3, 0, 1, 2)


def conv2d_maxpool2d(x: Tensor, weights: Tensor, bias: Tensor, window: int,
                     tape: Tape | None = None) -> Tensor:
    """conv2d, then maxpool2d over window, recorded as one op on x and the conv's
    output.

    The forward calls both; conv2d runs on x's array as a tensor that takes no
    gradient, so its own record, if the parameters take one, yields only theirs. The
    reverse pass routes the pooled cotangent by maxpool2d's rule into phases, the
    conv output's gradient split by its position mod window (_route), padded to
    _gemm_batch(rows, hp*wp) images; the input gradient is _input_grad's from
    them, so the routed gradient is never built at full resolution for it. The
    conv output's gradient interleaves the phases back, as maxpool2d's reverse
    pass does (_unroute).
    """
    y = conv2d(Tensor(x.data, dtype=x.data.dtype), weights, bias, tape=tape)
    out = maxpool2d(y, window)
    rows, o, ho, wo = y.shape
    hp, wp = ho // window, wo // window
    n = _gemm_batch(rows, hp * wp)
    yw = y.data.transpose(1, 2, 3, 0).reshape(o, hp, window, wp, window, rows)
    out_v = out.data.transpose(1, 2, 3, 0)

    def bw(g: np.ndarray, needs):
        phases = _route(g, yw, out_v, n)
        return (_input_grad(weights.data, phases, x.data) if needs[0] else None,
                _unroute(phases, rows) if needs[1] else None)

    return _finish(out, tape, (x, y), bw)


# ---------------------------------------------------------------------------
# affine / reshape / reductions


def dense(x: Tensor, weights: Tensor, bias: Tensor, tape: Tape | None = None) -> Tensor:
    """Affine map x @ weights + bias for 2-D batches. The GEMMs run the batch along
    their columns, as conv2d's do: weights.T @ x.T, and weights @ g.T for the input
    gradient, each over the batch padded to _gemm_batch(rows, 1)."""
    if x.data.ndim != 2 or weights.data.ndim != 2:
        raise ValueError(
            f"dense expects 2-D input and weights, got {x.shape} and {weights.shape}"
        )
    rows, f = x.shape
    fw, g_out = weights.shape
    if f != fw:
        raise ValueError(f"dense dimension mismatch: input width {f}, weights expect {fw}")
    if bias.shape != (g_out,):
        raise ValueError(f"dense bias must have shape ({g_out},), got {bias.shape}")
    n = _gemm_batch(rows, 1)

    def batch_gemm(a: np.ndarray, b: np.ndarray) -> np.ndarray:  # (a @ b.T).T, b's rows padded
        return np.ascontiguousarray((a @ _pad_rows(b, n).T)[:, :rows].T)

    out = Tensor(batch_gemm(weights.data.T, x.data) + bias.data, dtype=x.data.dtype)

    def bw(g: np.ndarray, needs):
        gx = batch_gemm(weights.data, g) if needs[0] else None
        gw = x.data.T @ g if needs[1] else None
        gb = g.sum(axis=0) if needs[2] else None
        return gx, gw, gb

    return _finish(out, tape, (x, weights, bias), bw)


def add(a: Tensor, b: Tensor, tape: Tape | None = None) -> Tensor:
    """Elementwise sum of two same-shape tensors."""
    if a.shape != b.shape:
        raise ValueError(f"add shape mismatch: {a.shape} vs {b.shape}")
    out = Tensor(a.data + b.data, dtype=a.data.dtype)

    def bw(g: np.ndarray, needs):
        return (g if needs[0] else None, g if needs[1] else None)

    return _finish(out, tape, (a, b), bw)


def flatten(x: Tensor, tape: Tape | None = None) -> Tensor:
    """Collapse all but the leading batch axis."""
    n = x.shape[0]
    out = Tensor(x.data.reshape(n, -1), dtype=x.data.dtype)  # copies CHWN memory to row-major

    def bw(g: np.ndarray, needs):  # an exact copy back into x's memory order
        return (np.positive(g.reshape(x.shape), out=np.empty_like(x.data)),)

    return _finish(out, tape, (x,), bw)


def sum_all(x: Tensor, tape: Tape | None = None) -> Tensor:
    """Sum of all elements, as a scalar tensor."""
    out = Tensor(x.data.sum(), dtype=x.data.dtype)

    def bw(g: np.ndarray, needs):
        return (np.broadcast_to(g, x.shape).astype(x.data.dtype),)

    return _finish(out, tape, (x,), bw)


def take(x: Tensor, flat_index: int, tape: Tape | None = None) -> Tensor:
    """One element by flat row-major index."""
    if not 0 <= flat_index < x.data.size:
        raise ValueError(f"flat index {flat_index} out of range for size {x.data.size}")
    out = Tensor(x.data.reshape(-1)[flat_index], dtype=x.data.dtype)

    def bw(g: np.ndarray, needs):
        gx = np.zeros(x.shape, x.data.dtype)  # row-major, so the flat view writes through
        gx.reshape(-1)[flat_index] = g
        return (gx,)

    return _finish(out, tape, (x,), bw)


# ---------------------------------------------------------------------------
# activations


def srelu(x: Tensor, slope: float, tape: Tape | None = None) -> Tensor:
    """Sloped rectifier: slope * max(0, x). Equals plain ReLU at slope 1.

    The subgradient at exactly 0 is taken as 0.
    """
    if slope < 0:
        raise ValueError(f"slope must be non-negative, got {slope}")
    xd = x.data
    out = Tensor(slope * np.maximum(xd, 0), dtype=xd.dtype)

    def bw(g: np.ndarray, needs):
        gx = g * (xd > 0)
        gx *= np.asarray(slope, dtype=xd.dtype)
        return (gx,)

    return _finish(out, tape, (x,), bw)


def _sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def _softplus(z: np.ndarray) -> np.ndarray:
    return np.maximum(z, 0) + np.log1p(np.exp(-np.abs(z)))


LEAKY_SLOPE = 0.01
ELU_ALPHA = 1.0

# kind -> (forward, derivative-from-(x, y))
_ACTIVATIONS: dict[str, tuple[Callable, Callable]] = {
    "sigmoid": (_sigmoid, lambda x, y: y * (1.0 - y)),
    "tanh": (np.tanh, lambda x, y: 1.0 - y * y),
    "leaky_relu": (
        lambda x: np.where(x > 0, x, LEAKY_SLOPE * x),
        lambda x, y: np.where(x > 0, 1.0, LEAKY_SLOPE),
    ),
    "elu": (
        lambda x: np.where(x > 0, x, ELU_ALPHA * np.expm1(np.minimum(x, 0))),
        lambda x, y: np.where(x > 0, 1.0, ELU_ALPHA * np.exp(np.minimum(x, 0))),
    ),
    "softplus": (_softplus, lambda x, y: _sigmoid(x)),
    # pass-through control, handy for isolating activation placement
    "identity": (lambda x: x.copy(order="K"), lambda x, y: np.ones_like(x)),
}

ACTIVATION_KINDS = tuple(k for k in _ACTIVATIONS if k != "identity")


def activation(x: Tensor, kind: str, tape: Tape | None = None) -> Tensor:
    """Apply a named elementwise activation with its reverse-pass derivative."""
    try:
        fwd, deriv = _ACTIVATIONS[kind]
    except KeyError:
        raise ValueError(
            f"unknown activation kind {kind!r}; known: {sorted(_ACTIVATIONS)}"
        ) from None
    xd = x.data
    yd = fwd(xd).astype(xd.dtype, copy=False)
    out = Tensor(yd, dtype=xd.dtype)

    def bw(g: np.ndarray, needs):
        return (g * deriv(xd, yd).astype(xd.dtype, copy=False),)

    return _finish(out, tape, (x,), bw)


# ---------------------------------------------------------------------------
# losses


def _log_softmax_parts(logits: np.ndarray):
    m = logits.max(axis=1, keepdims=True)
    z = logits - m
    lse = np.log(np.exp(z).sum(axis=1, keepdims=True))
    return z, lse


def softmax(logits: np.ndarray) -> np.ndarray:
    """Row-wise softmax, stabilized by max subtraction."""
    z, lse = _log_softmax_parts(logits)
    return np.exp(z - lse)


def _cross_entropy(logits: Tensor, target_probs: np.ndarray, tape: Tape | None) -> Tensor:
    """Mean over the batch of the cross-entropy against one target distribution per row."""
    n = logits.shape[0]
    z, lse = _log_softmax_parts(logits.data)
    per_row = (target_probs * (lse - z)).sum(axis=1)
    out = Tensor(per_row.sum() / n, dtype=logits.data.dtype)

    def bw(g: np.ndarray, needs):
        grad = (np.exp(z - lse) - target_probs) * (g / n)
        return (grad.astype(logits.data.dtype, copy=False),)

    return _finish(out, tape, (logits,), bw)


def _onehot(logits: np.ndarray, labels) -> np.ndarray:
    """One row per logits row, 1 at its label: labels checked against logits' shape."""
    if logits.ndim != 2:
        raise ValueError(f"logits must be 2-D, got shape {logits.shape}")
    n, c = logits.shape
    labels = np.asarray(labels)
    if labels.shape != (n,):
        raise ValueError(f"labels must have shape ({n},), got {labels.shape}")
    if labels.size and (labels.min() < 0 or labels.max() >= c):
        raise ValueError(f"labels out of range [0, {c})")
    onehot = np.zeros((n, c), dtype=logits.dtype)
    onehot[np.arange(n), labels] = 1.0
    return onehot


def softmax_cross_entropy(logits: Tensor, labels: np.ndarray, tape: Tape | None = None) -> Tensor:
    """Mean over the batch of -log softmax(logits)[label]: training's loss."""
    return _cross_entropy(logits, _onehot(logits.data, labels), tape)


def soft_cross_entropy(
    logits: Tensor, target_probs: np.ndarray, tape: Tape | None = None
) -> Tensor:
    """Mean cross-entropy against a soft target distribution per row."""
    if logits.shape != np.shape(target_probs):
        raise ValueError(
            f"target shape {np.shape(target_probs)} must match logits {logits.shape}"
        )
    return _cross_entropy(logits, target_probs, tape)
