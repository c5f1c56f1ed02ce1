"""CNN architectures with a runtime-configurable test-time activation.

A Model is an architecture's parameters plus the activation it runs at every
activation site: the rectifier at a slope (1 by default), or a substitute
function. with_slope and with_activation give views that share the
parameters. The parameters take no gradient: only the training loop
(experiments._sgd) builds a trainable view of them, at slope 1, so the slope
is a test-time setting only. Every pass outside training (logits, predict,
loss_input_grad, logit_input_grads, penultimate_features) is batch-invariant:
an image's logits, logit gradients and loss input gradient have the same bits
in a batch of any size. Parameters persist in a compact little-endian binary
format with a bit-exact round trip.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, replace

import numpy as np

from . import autodiff as ad
from .autodiff import Tape, Tensor

PARAMS_MAGIC = b"SRLU"
PARAMS_VERSION = 1


class ParamsFormatError(ValueError):
    """Raised when a parameter file is malformed or mismatched."""


# ---------------------------------------------------------------------------
# architecture descriptions


@dataclass(frozen=True)
class Conv:
    name: str
    in_channels: int
    out_channels: int
    kernel: int


@dataclass(frozen=True)
class Pool:
    window: int = 2  # must tile the map it pools, as 2 tiles every built-in one


@dataclass(frozen=True)
class Act:
    """Marker for an activation site (slope/function applied at runtime)."""


@dataclass(frozen=True)
class Flatten:
    pass


@dataclass(frozen=True)
class Dense:
    name: str
    in_features: int
    out_features: int


@dataclass(frozen=True)
class ArchitectureSpec:
    id: str
    input_shape: tuple[int, int, int]  # (C, H, W)
    layers: tuple


ARCHITECTURES: dict[str, ArchitectureSpec] = {
    "mnist_cnn": ArchitectureSpec(
        id="mnist_cnn",
        input_shape=(1, 28, 28),
        layers=(
            Conv("conv1", 1, 10, 5),
            Pool(2),
            Act(),
            Conv("conv2", 10, 20, 5),
            Pool(2),
            Act(),
            Flatten(),
            Dense("fc1", 320, 50),
            Act(),
            Dense("fc2", 50, 10),
        ),
    ),
    "cifar10_cnn1": ArchitectureSpec(
        id="cifar10_cnn1",
        input_shape=(3, 32, 32),
        layers=(
            Conv("conv1", 3, 6, 5),
            Act(),
            Pool(2),
            Conv("conv2", 6, 16, 5),
            Act(),
            Pool(2),
            Flatten(),
            Dense("fc1", 400, 120),
            Act(),
            Dense("fc2", 120, 84),
            Act(),
            Dense("fc3", 84, 10),
        ),
    ),
    # same parameters as cifar10_cnn1; activations only after the first two
    # fully connected layers, convolutions feed pooling directly
    "cifar10_cnn2": ArchitectureSpec(
        id="cifar10_cnn2",
        input_shape=(3, 32, 32),
        layers=(
            Conv("conv1", 3, 6, 5),
            Pool(2),
            Conv("conv2", 6, 16, 5),
            Pool(2),
            Flatten(),
            Dense("fc1", 400, 120),
            Act(),
            Dense("fc2", 120, 84),
            Act(),
            Dense("fc3", 84, 10),
        ),
    ),
}


def resolve_arch(arch: "str | ArchitectureSpec") -> ArchitectureSpec:
    if isinstance(arch, ArchitectureSpec):
        return arch
    try:
        return ARCHITECTURES[arch]
    except KeyError:
        raise ValueError(
            f"unknown architecture {arch!r}; known: {sorted(ARCHITECTURES)}"
        ) from None


def check_slope_applies(slope: float, activation: str) -> None:
    """ValueError unless slope is 1 or activation is the rectifier, which alone has one."""
    if activation != "srelu" and slope != 1.0:
        raise ValueError(f"a slope applies only to srelu, not {activation} (got slope {slope})")


@dataclass
class Model:
    """Parameters, and what every activation site runs: the rectifier ("srelu")
    at slope, or the substitute function activation names (at slope 1 only)."""

    spec: ArchitectureSpec
    params: dict[str, Tensor]
    slope: float = 1.0
    activation: str = "srelu"

    def __post_init__(self):
        if not 0 < self.slope < np.inf:  # also rejects nan; inf would make 0 * inf in srelu
            raise ValueError(f"test slope must be positive and finite, got {self.slope}")
        if self.activation != "srelu" and self.activation not in ad._ACTIVATIONS:
            raise ValueError(f"unknown test activation {self.activation!r}")
        check_slope_applies(self.slope, self.activation)

    def with_slope(self, slope: float) -> "Model":
        """Same parameters, rectifier at a different slope."""
        return replace(self, slope=slope, activation="srelu")

    def with_activation(self, kind: str) -> "Model":
        """Same parameters, activation swapped for a named function."""
        return replace(self, activation=kind)

    # narrow interface the attack generators rely on -----------------------

    def logits(self, images: np.ndarray) -> np.ndarray:
        """Logits for a batch under the configured test activation."""
        return _forward(self, Tensor(images), batch_invariant=True).data

    def predict(self, images: np.ndarray) -> np.ndarray:
        """Argmax class per image; ties resolve to the lowest index.

        Raises ValueError when a logit is not finite (a large slope can
        overflow the forward pass), so no accuracy is read off NaN argmaxes.
        """
        with np.errstate(over="ignore", invalid="ignore"):  # reported below instead
            logits = self.logits(images)
        return _require_finite(logits, "logits", self).argmax(axis=1)

    def loss_input_grad(self, images: np.ndarray, labels: np.ndarray) -> tuple[float, np.ndarray]:
        """Cross-entropy summed over the images, and its input gradient: the logits
        seeded with softmax minus one-hot, so each row is its own image's loss
        gradient, with the same bits in any batch (see autodiff)."""
        logits, input_grad = self._input_pass(images)
        z, lse = ad._log_softmax_parts(logits)
        grad = input_grad(np.exp(z - lse) - ad._onehot(logits, labels))
        return float((lse - z)[np.arange(len(z)), labels].sum()), np.ascontiguousarray(grad)

    def logit_input_grads(self, images: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Logits (N, classes) and each logit's input gradient, stacked by class
        as (classes,) + images.shape: one reverse pass per class, seeded with its
        one-hot column, so no image's gradient reads another's."""
        logits, input_grad = self._input_pass(images)
        classes = np.eye(logits.shape[1], dtype=logits.dtype)
        return logits, np.stack([input_grad(np.tile(e, (len(logits), 1))) for e in classes])

    def _input_pass(self, images: np.ndarray):
        """One taped batch-invariant forward: its logits, and cotangent -> input gradient."""
        tape, x = Tape(), Tensor(images, requires_grad=True)
        logits = _forward(self, x, tape=tape, batch_invariant=True)
        return logits.data, lambda seed: ad.backward(tape, logits, seed)[x]


def _require_finite(rows: np.ndarray, what: str, model: Model) -> np.ndarray:
    """rows unchanged, or ValueError naming how many images hold a non-finite value."""
    finite = np.isfinite(rows).all(axis=1)
    if not finite.all():
        raise ValueError(
            f"non-finite {what} for {int((~finite).sum())} of {len(rows)} images "
            f"at test slope {model.slope:g} ({model.activation}); "
            "the forward pass overflowed"
        )
    return rows


def _init_param(rng: np.random.Generator, shape: tuple[int, ...], fan_in: int) -> Tensor:
    bound = 1.0 / np.sqrt(fan_in)
    return Tensor(rng.uniform(-bound, bound, size=shape))


def _param_layout(spec: ArchitectureSpec) -> list[tuple[str, tuple[int, ...], int]]:
    """(name, shape, fan_in) of every parameter, in initialization order."""
    layout = []
    for layer in spec.layers:
        if isinstance(layer, Conv):
            fan_in = layer.in_channels * layer.kernel * layer.kernel
            shape = (layer.out_channels, layer.in_channels, layer.kernel, layer.kernel)
            layout.append((f"{layer.name}.w", shape, fan_in))
            layout.append((f"{layer.name}.b", (layer.out_channels,), fan_in))
        elif isinstance(layer, Dense):
            fan_in = layer.in_features
            layout.append((f"{layer.name}.w", (fan_in, layer.out_features), fan_in))
            layout.append((f"{layer.name}.b", (layer.out_features,), fan_in))
    return layout


def build_model(arch: "str | ArchitectureSpec", seed: int) -> Model:
    """Initialize parameters uniformly in +-1/sqrt(fan_in), per layer, seeded."""
    spec = resolve_arch(arch)
    rng = np.random.default_rng(seed)
    params = {name: _init_param(rng, shape, fan_in)
              for name, shape, fan_in in _param_layout(spec)}
    return Model(spec, params)


def _forward(model: Model, x: Tensor, tape: Tape | None = None,
             batch_invariant: bool = False) -> Tensor:
    """Run the layer stack; an op records a gradient for each tensor, input or
    parameter, that asks for one. batch_invariant pads each GEMM's batch (see
    autodiff), as the Model batch passes do; the training step runs unpadded."""
    expected = (x.shape[0],) + model.spec.input_shape
    if x.shape != expected:
        raise ValueError(f"batch shape {x.shape} does not match expected {expected}")
    params = model.params
    for layer in model.spec.layers:
        if isinstance(layer, Conv):
            x = ad.conv2d(x, params[f"{layer.name}.w"], params[f"{layer.name}.b"], tape=tape,
                          batch_invariant=batch_invariant)
        elif isinstance(layer, Pool):
            x = ad.maxpool2d(x, layer.window, tape=tape)
        elif isinstance(layer, Act):
            x = (ad.srelu(x, model.slope, tape=tape) if model.activation == "srelu"
                 else ad.activation(x, model.activation, tape=tape))
        elif isinstance(layer, Flatten):
            x = ad.flatten(x, tape=tape)
        elif isinstance(layer, Dense):
            x = ad.dense(x, params[f"{layer.name}.w"], params[f"{layer.name}.b"], tape=tape,
                         batch_invariant=batch_invariant)
        else:
            raise ValueError(f"unknown layer kind {layer!r}")
    return x


def penultimate_features(model: Model, batch: np.ndarray) -> np.ndarray:
    """Activations entering the final dense layer.

    Raises ValueError when a feature is not finite, as Model.predict does.
    """
    layers = model.spec.layers
    last_dense = max(i for i, layer in enumerate(layers) if isinstance(layer, Dense))
    head = replace(model.spec, layers=layers[:last_dense])
    with np.errstate(over="ignore", invalid="ignore"):  # reported below instead
        feats = _forward(replace(model, spec=head), Tensor(batch), batch_invariant=True).data
    return _require_finite(feats, "features", model)


# ---------------------------------------------------------------------------
# parameter persistence
#
# layout, all little-endian:
#   magic "SRLU" | u32 version | u32 tensor count
#   per tensor: u16 name length | name (utf-8) | u32 rank | u32 dims...
#               | float32 values (row-major)


def save_params(model: Model, path) -> None:
    """Write the model's parameters; a non-finite value is refused, naming its
    tensor, before the file is opened, as load_params would refuse it."""
    for name, tensor in model.params.items():
        if not np.isfinite(tensor.data).all():
            raise ParamsFormatError(f"tensor {name!r} holds non-finite values")
    with open(path, "wb") as f:
        f.write(PARAMS_MAGIC)
        f.write(struct.pack("<II", PARAMS_VERSION, len(model.params)))
        for name, tensor in model.params.items():
            encoded = name.encode("utf-8")
            f.write(struct.pack("<H", len(encoded)))
            f.write(encoded)
            f.write(struct.pack("<I", tensor.data.ndim))
            f.write(struct.pack(f"<{tensor.data.ndim}I", *tensor.data.shape))
            f.write(np.ascontiguousarray(tensor.data, dtype="<f4").tobytes())


class _Reader:
    def __init__(self, blob: bytes):
        self.blob = blob
        self.pos = 0

    def read(self, n: int) -> bytes:
        if self.pos + n > len(self.blob):
            raise ParamsFormatError("parameter file is truncated")
        out = self.blob[self.pos : self.pos + n]
        self.pos += n
        return out

    def unpack(self, fmt: str):
        return struct.unpack(fmt, self.read(struct.calcsize(fmt)))


def load_params(path, arch: "str | ArchitectureSpec") -> Model:
    """Load parameters saved by save_params into a fresh model.

    Names and shapes are validated against the architecture, each name must
    appear once, and every value must be finite; each error names the
    offending tensor.
    """
    spec = resolve_arch(arch)
    with open(path, "rb") as f:
        reader = _Reader(f.read())

    if reader.read(4) != PARAMS_MAGIC:
        raise ParamsFormatError("bad magic: not a parameter file")
    (version, count) = reader.unpack("<II")
    if version != PARAMS_VERSION:
        raise ParamsFormatError(f"unsupported parameter file version {version}")

    params: dict[str, Tensor] = {}
    for _ in range(count):
        (name_len,) = reader.unpack("<H")
        name = reader.read(name_len).decode("utf-8")
        if name in params:
            raise ParamsFormatError(f"tensor {name!r} appears more than once")
        (rank,) = reader.unpack("<I")
        if rank > 8:
            raise ParamsFormatError(f"implausible rank {rank} for tensor {name!r}")
        dims = reader.unpack(f"<{rank}I")
        n_values = int(np.prod(dims, dtype=np.int64)) if rank else 1
        raw = reader.read(4 * n_values)
        values = np.frombuffer(raw, dtype="<f4").reshape(dims).copy()  # writable, so it can be trained
        params[name] = Tensor(values)
    if reader.pos != len(reader.blob):
        raise ParamsFormatError("trailing bytes after last tensor")

    expected = {name: shape for name, shape, _ in _param_layout(spec)}
    if set(params) != set(expected):
        missing = sorted(set(expected) - set(params))
        extra = sorted(set(params) - set(expected))
        raise ParamsFormatError(
            f"parameter names do not match architecture {spec.id!r}"
            f" (missing {missing}, unexpected {extra})"
        )
    for name, shape in expected.items():
        if params[name].shape != shape:
            raise ParamsFormatError(
                f"tensor {name!r} has shape {params[name].shape}, "
                f"architecture {spec.id!r} expects {shape}"
            )
        if not np.isfinite(params[name].data).all():
            raise ParamsFormatError(f"tensor {name!r} holds non-finite values")
    ordered = {name: params[name] for name in expected}
    return Model(spec, ordered)
