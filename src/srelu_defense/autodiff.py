"""Dense tensors with tape-based reverse-mode differentiation.

Forward operators cover exactly what small image CNNs need: valid-padding
convolution, max pooling, affine layers, a family of elementwise
activations, and softmax cross-entropy losses. Every operator optionally
records itself on a ``Tape``; ``backward`` replays the tape once in reverse
and returns a dict from each tensor that requested a gradient, network
inputs included, to that gradient.

Tensors are 32-bit (``DTYPE``) unless built with an explicit dtype; the
high-accuracy gradient checks build float64 tensors that way.
"""

from __future__ import annotations

import threading
from typing import Callable, Sequence

import numpy as np

DTYPE = np.float32


class Tensor:
    """A contiguous row-major n-dimensional array, the unit of computation.

    Values are immutable by convention once produced by an operator; only
    the training loop writes into parameter buffers, between tapes.
    """

    __slots__ = ("data", "requires_grad")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        arr = np.asarray(data, dtype=dtype or DTYPE)
        if not arr.flags["C_CONTIGUOUS"]:
            arr = np.ascontiguousarray(arr)
        self.data = arr
        self.requires_grad = bool(requires_grad)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def item(self) -> float:
        if self.data.size != 1:
            raise ValueError(f"item() on tensor of shape {self.shape}")
        return float(self.data.reshape(()))

    def __array__(self, dtype=None, copy=None):
        if dtype is None:
            return self.data
        return self.data.astype(dtype)

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
    touches each record exactly once. A tape is single-threaded; independent
    tapes may run concurrently over shared read-only tensors.
    """

    def __init__(self):
        self._records: list[_Record] = []
        self._produced: set[Tensor] = set()

    def record(
        self,
        out: Tensor,
        inputs: Sequence[Tensor],
        backward_fn: Callable[[np.ndarray, tuple[bool, ...]], Sequence],
    ) -> None:
        self._records.append(_Record(out, tuple(inputs), backward_fn))
        self._produced.add(out)

    def produced(self, t: Tensor) -> bool:
        return t in self._produced


def _finish(out: Tensor, tape: Tape | None, inputs, backward_fn) -> Tensor:
    if tape is not None and any(t.requires_grad for t in inputs):
        out.requires_grad = True
        tape.record(out, inputs, backward_fn)
    return out


def backward(tape: Tape, loss: Tensor) -> dict[Tensor, np.ndarray]:
    """Reverse pass from a scalar loss; returns gradients for the whole tape.

    Tensors hash by identity, so the result is keyed by the tensor objects
    themselves; a tensor the loss does not reach has no entry.

    Deterministic: the accumulation order is fixed by the tape, so repeated
    runs over identical inputs produce bit-identical gradients.
    """
    if loss.data.size != 1:
        raise ValueError(f"loss must be scalar, got shape {loss.shape}")
    if not tape.produced(loss):
        raise ValueError("loss tensor was not produced through this tape")

    grads: dict[Tensor, np.ndarray] = {loss: np.ones_like(loss.data)}
    for rec in reversed(tape._records):
        g_out = grads.get(rec.out)
        if g_out is None:
            continue
        needs = tuple(t.requires_grad for t in rec.inputs)
        for t, g in zip(rec.inputs, rec.backward_fn(g_out, needs)):
            if g is None or not t.requires_grad:
                continue
            acc = grads.get(t)
            # never accumulate in place: backward functions may return views
            # of upstream gradients (reshape) or read-only broadcasts
            grads[t] = g if acc is None else acc + g
    return grads


# ---------------------------------------------------------------------------
# convolution / pooling


def _windows(a: np.ndarray, kh: int, kw: int, stride: int) -> np.ndarray:
    """Strided view (N, C, ho, wo, kh, kw) over all kernel placements."""
    n, c, h, w = a.shape
    ho = (h - kh) // stride + 1
    wo = (w - kw) // stride + 1
    s0, s1, s2, s3 = a.strides
    return np.lib.stride_tricks.as_strided(
        a, (n, c, ho, wo, kh, kw), (s0, s1, s2 * stride, s3 * stride, s2, s3)
    )


def _tap(a: np.ndarray, p: int, q: int, ho: int, wo: int, stride: int) -> np.ndarray:
    """Strided view (N, C, ho, wo) of the elements at kernel offset (p, q)."""
    rows = slice(p, p + (ho - 1) * stride + 1, stride)
    cols = slice(q, q + (wo - 1) * stride + 1, stride)
    return a[:, :, rows, cols]


_scratch = threading.local()


def _scratch_array(slot: int, shape: tuple, dtype) -> np.ndarray:
    """Uninitialised array in this thread's reused byte buffer slot (conv2d's 0:
    columns-, 1: output-, 2: input-sized); no op returns or keeps a view of one."""
    nbytes = int(np.prod(shape)) * np.dtype(dtype).itemsize
    slots = _scratch.__dict__.setdefault("slots", [np.empty(0, np.uint8)] * 3)
    if slots[slot].nbytes < nbytes:
        slots[slot] = np.empty(nbytes, np.uint8)
    return slots[slot][:nbytes].view(dtype).reshape(shape)


def conv2d(
    x: Tensor, weights: Tensor, bias: Tensor, stride: int = 1, tape: Tape | None = None
) -> Tensor:
    """Valid-padding 2-D convolution of an NCHW batch.

    weights are laid out (out_channels, in_channels, kh, kw); output spatial
    dims are floor((in - k) / stride) + 1.
    """
    if x.data.ndim != 4:
        raise ValueError(f"conv2d input must be NCHW, got shape {x.shape}")
    if weights.data.ndim != 4:
        raise ValueError(f"conv2d weights must be OIKK, got shape {weights.shape}")
    n, c, h, w = x.shape
    o, i, kh, kw = weights.shape
    if c != i:
        raise ValueError(f"conv2d channel mismatch: input has {c}, weights expect {i}")
    if kh > h or kw > w:
        raise ValueError(f"kernel {kh}x{kw} does not fit input {h}x{w} (valid padding)")
    if bias.shape != (o,):
        raise ValueError(f"conv2d bias must have shape ({o},), got {bias.shape}")
    if stride < 1:
        raise ValueError("stride must be a positive integer")

    ho = (h - kh) // stride + 1
    wo = (w - kw) // stride + 1
    k, m = c * kh * kw, n * ho * wo
    # K-major im2col: (O, C*kh*kw) @ (C*kh*kw, N*ho*wo), so the output transpose
    # to NCHW moves whole ho*wo rows; the columns outlive the call only for gw
    kept_cols = np.empty((k, m), x.data.dtype) if tape and weights.requires_grad else None
    cols = _scratch_array(0, (k, m), x.data.dtype) if kept_cols is None else kept_cols
    np.copyto(cols.reshape(c, kh, kw, n, ho, wo),
              _windows(x.data, kh, kw, stride).transpose(1, 4, 5, 0, 2, 3))
    out_mat = np.matmul(weights.data.reshape(o, k), cols, out=_scratch_array(
        1, (o, m), np.result_type(weights.data, cols)))
    out_mat += bias.data[:, None]
    # a copy even where the transpose is already contiguous (a batch of one)
    out = Tensor(np.array(out_mat.reshape(o, n, ho, wo).transpose(1, 0, 2, 3), order="C"),
                 dtype=out_mat.dtype)

    def bw(g: np.ndarray, needs):
        gx = gw = gb = None
        if needs[0]:
            # one GEMM straight into tap-major order (kh, kw, C, ho, wo, N),
            # each tap added into a CHWN buffer; with the batch innermost an
            # add runs over wo*N contiguous floats. Both are indexed as NCHW.
            gt = _scratch_array(1, (o, m), g.dtype)
            np.copyto(gt.reshape(o, ho, wo, n), g.transpose(1, 2, 3, 0))
            wtap = weights.data.transpose(2, 3, 1, 0).reshape(k, o)
            taps = np.matmul(wtap, gt, out=_scratch_array(0, (k, m), np.result_type(wtap, gt)))
            taps = taps.reshape(kh, kw, c, ho, wo, n).transpose(0, 1, 5, 2, 3, 4)
            gx = _scratch_array(2, (c, h, w, n), x.data.dtype).transpose(3, 0, 1, 2)
            gx.fill(0)
            for p in range(kh):
                for q in range(kw):
                    _tap(gx, p, q, ho, wo, stride)[...] += taps[p, q]
            gx = np.array(gx, order="C")
        if needs[1] or needs[2]:
            # (N*ho*wo, O); the bias gradient adds its rows in sequence
            gmat = _scratch_array(1, (m, o), g.dtype)
            np.copyto(gmat.reshape(n, ho, wo, o), g.transpose(0, 2, 3, 1))
            if needs[1]:
                gw = (kept_cols @ gmat).T.reshape(o, c, kh, kw)
            if needs[2]:
                gb = gmat.sum(axis=0)
        return gx, gw, gb

    return _finish(out, tape, (x, weights, bias), bw)


def maxpool2d(x: Tensor, window: int, tape: Tape | None = None) -> Tensor:
    """Max pooling over non-overlapping square windows (the stride is the
    window); gradient flows only to the argmax.

    The forward folds np.maximum over the window taps in row-major order.
    Ties, signed zeros included (-0.0 == 0.0), route the gradient to the
    first tap in that order that equals the max.
    """
    if x.data.ndim != 4:
        raise ValueError(f"maxpool2d input must be NCHW, got shape {x.shape}")
    n, c, h, w = x.shape
    if window > h or window > w:
        raise ValueError(f"pool window {window} larger than input {h}x{w}")
    if window < 1:
        raise ValueError("window must be a positive integer")

    ho, wo = h // window, w // window
    taps = [(p, q) for p in range(window) for q in range(window)]
    out_data = _tap(x.data, 0, 0, ho, wo, window).copy()
    for p, q in taps[1:]:
        np.maximum(out_data, _tap(x.data, p, q, ho, wo, window), out=out_data)
    out = Tensor(out_data, dtype=out_data.dtype)

    def bw(g: np.ndarray, needs):
        if not needs[0]:
            return (None,)
        # the taps tile gx: each position is written once, and only the rest zeroed
        gx = np.empty_like(x.data)
        gx[:, :, ho * window:] = gx[..., wo * window:] = 0
        unclaimed = np.ones(out_data.shape, dtype=bool)
        routed = np.empty_like(g)
        for p, q in taps:
            hit = _tap(x.data, p, q, ho, wo, window) == out_data
            hit &= unclaimed
            unclaimed ^= hit
            # g * False is -0.0 where g < 0; adding +0.0 stores a zeroed sum's +0.0
            np.add(np.multiply(g, hit, out=routed), 0.0, out=_tap(gx, p, q, ho, wo, window))
        return (gx,)

    return _finish(out, tape, (x,), bw)


# ---------------------------------------------------------------------------
# affine / reshape / reductions


def dense(x: Tensor, weights: Tensor, bias: Tensor, tape: Tape | None = None) -> Tensor:
    """Affine map x @ weights + bias for 2-D batches."""
    if x.data.ndim != 2 or weights.data.ndim != 2:
        raise ValueError(
            f"dense expects 2-D input and weights, got {x.shape} and {weights.shape}"
        )
    n, f = x.shape
    fw, g_out = weights.shape
    if f != fw:
        raise ValueError(f"dense dimension mismatch: input width {f}, weights expect {fw}")
    if bias.shape != (g_out,):
        raise ValueError(f"dense bias must have shape ({g_out},), got {bias.shape}")
    out = Tensor(x.data @ weights.data + bias.data, dtype=x.data.dtype)

    def bw(g: np.ndarray, needs):
        gx = g @ weights.data.T if needs[0] else None
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
    out = Tensor(x.data.reshape(n, -1), dtype=x.data.dtype)

    def bw(g: np.ndarray, needs):
        return (g.reshape(x.shape) if needs[0] else None,)

    return _finish(out, tape, (x,), bw)


def sum_all(x: Tensor, tape: Tape | None = None) -> Tensor:
    """Sum of all elements, as a scalar tensor."""
    out = Tensor(x.data.sum(), dtype=x.data.dtype)

    def bw(g: np.ndarray, needs):
        return (np.broadcast_to(g, x.shape).astype(x.data.dtype) if needs[0] else None,)

    return _finish(out, tape, (x,), bw)


def take(x: Tensor, flat_index: int, tape: Tape | None = None) -> Tensor:
    """Select one element (by flat row-major index) as a scalar tensor."""
    if not 0 <= flat_index < x.data.size:
        raise ValueError(f"flat index {flat_index} out of range for size {x.data.size}")
    out = Tensor(x.data.reshape(-1)[flat_index], dtype=x.data.dtype)

    def bw(g: np.ndarray, needs):
        if not needs[0]:
            return (None,)
        gx = np.zeros_like(x.data)
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
        if not needs[0]:
            return (None,)
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
    "identity": (lambda x: x.copy(), lambda x, y: np.ones_like(x)),
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
        return (g * deriv(xd, yd).astype(xd.dtype, copy=False) if needs[0] else None,)

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
    out = Tensor(per_row.mean(), dtype=logits.data.dtype)

    def bw(g: np.ndarray, needs):
        if not needs[0]:
            return (None,)
        grad = (np.exp(z - lse) - target_probs) * (g / n)
        return (grad.astype(logits.data.dtype, copy=False),)

    return _finish(out, tape, (logits,), bw)


def softmax_cross_entropy(
    logits: Tensor, labels: np.ndarray, tape: Tape | None = None
) -> Tensor:
    """Mean over the batch of -log softmax(logits)[label]."""
    if logits.data.ndim != 2:
        raise ValueError(f"logits must be 2-D, got shape {logits.shape}")
    n, c = logits.shape
    labels = np.asarray(labels)
    if labels.shape != (n,):
        raise ValueError(f"labels must have shape ({n},), got {labels.shape}")
    if labels.size and (labels.min() < 0 or labels.max() >= c):
        raise ValueError(f"labels out of range [0, {c})")
    onehot = np.zeros((n, c), dtype=logits.data.dtype)
    onehot[np.arange(n), labels] = 1.0
    return _cross_entropy(logits, onehot, tape)


def soft_cross_entropy(
    logits: Tensor, target_probs: np.ndarray, tape: Tape | None = None
) -> Tensor:
    """Mean cross-entropy against a soft target distribution per row."""
    if logits.shape != np.shape(target_probs):
        raise ValueError(
            f"target shape {np.shape(target_probs)} must match logits {logits.shape}"
        )
    return _cross_entropy(logits, target_probs, tape)
