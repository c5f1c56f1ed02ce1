"""CNN architectures with a runtime-configurable test-time activation.

Networks train with the plain rectifier (slope 1) and can be evaluated with
a different rectifier slope, or with a different activation function
entirely, without touching the parameters. Parameters persist in a compact
little-endian binary format with a bit-exact round trip.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field, replace

import numpy as np

from . import autodiff as ad
from .autodiff import Tape, Tensor

NUM_CLASSES = 10

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
    stride: int = 1


@dataclass(frozen=True)
class Pool:
    window: int = 2


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


@dataclass(frozen=True)
class SlopeConfig:
    """Activation configuration: training slope, and the test-time override."""

    train_slope: float = 1.0
    test_slope: float = 1.0
    test_activation: str = "srelu"

    def __post_init__(self):
        if self.test_slope <= 0:
            raise ValueError(f"test slope must be positive, got {self.test_slope}")
        if self.test_activation != "srelu" and self.test_activation not in ad._ACTIVATIONS:
            raise ValueError(f"unknown test activation {self.test_activation!r}")


@dataclass
class Model:
    spec: ArchitectureSpec
    params: dict[str, Tensor]
    slope_config: SlopeConfig = field(default_factory=SlopeConfig)

    def with_slope(self, test_slope: float) -> "Model":
        """Same parameters, different test-time rectifier slope."""
        cfg = replace(self.slope_config, test_slope=test_slope, test_activation="srelu")
        return Model(self.spec, self.params, cfg)

    def with_activation(self, kind: str) -> "Model":
        """Same parameters, test-time activation swapped for a named function."""
        if kind == "srelu":
            return self.with_slope(1.0)
        cfg = replace(self.slope_config, test_activation=kind)
        return Model(self.spec, self.params, cfg)

    # narrow interface the attack generators rely on -----------------------

    def logits(self, images: np.ndarray, mode: str = "eval") -> np.ndarray:
        x = Tensor(images)
        return _forward(self, x, mode=mode, tape=None).data

    def predict(self, images: np.ndarray) -> np.ndarray:
        return self.logits(images).argmax(axis=1)

    def loss_input_grad(
        self, images: np.ndarray, labels: np.ndarray, mode: str = "eval"
    ) -> tuple[float, np.ndarray]:
        """Cross-entropy loss and its gradient with respect to the images."""
        tape = Tape()
        x = Tensor(images, requires_grad=True)
        logits = _forward(self, x, mode=mode, tape=tape, params_grad=False)
        loss = ad.softmax_cross_entropy(logits, labels, tape=tape)
        grads = ad.backward(tape, loss)
        return loss.item(), grads[x].data

    def logit_input_grads(self, image: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Per-class logit gradients for a single image (shape 1xCxHxW).

        Returns (logits row, gradient stack of shape (classes,) + image shape).
        """
        tape = Tape()
        x = Tensor(image, requires_grad=True)
        logits = _forward(self, x, mode="eval", tape=tape, params_grad=False)
        n_classes = logits.shape[1]
        grads = np.empty((n_classes,) + x.shape, dtype=x.data.dtype)
        for k in range(n_classes):
            scalar = ad.take(logits, k, tape=tape)
            gmap = ad.backward(tape, scalar)
            grads[k] = gmap[x].data
        return logits.data[0].copy(), grads


def _init_param(rng: np.random.Generator, shape: tuple[int, ...], fan_in: int) -> Tensor:
    bound = 1.0 / np.sqrt(fan_in)
    values = rng.uniform(-bound, bound, size=shape)
    return Tensor(values, requires_grad=True)


def build_model(
    arch: "str | ArchitectureSpec", seed: int, slope_config: SlopeConfig | None = None
) -> Model:
    """Initialize parameters uniformly in +-1/sqrt(fan_in), per layer, seeded."""
    spec = resolve_arch(arch)
    rng = np.random.default_rng(seed)
    params: dict[str, Tensor] = {}
    for layer in spec.layers:
        if isinstance(layer, Conv):
            fan_in = layer.in_channels * layer.kernel * layer.kernel
            shape = (layer.out_channels, layer.in_channels, layer.kernel, layer.kernel)
            params[f"{layer.name}.w"] = _init_param(rng, shape, fan_in)
            params[f"{layer.name}.b"] = _init_param(rng, (layer.out_channels,), fan_in)
        elif isinstance(layer, Dense):
            params[f"{layer.name}.w"] = _init_param(
                rng, (layer.in_features, layer.out_features), layer.in_features
            )
            params[f"{layer.name}.b"] = _init_param(
                rng, (layer.out_features,), layer.in_features
            )
    return Model(spec, params, slope_config or SlopeConfig())


def _apply_activation(x: Tensor, model: Model, mode: str, tape: Tape | None) -> Tensor:
    if mode == "train":
        return ad.srelu(x, model.slope_config.train_slope, tape=tape)
    if model.slope_config.test_activation == "srelu":
        return ad.srelu(x, model.slope_config.test_slope, tape=tape)
    return ad.activation(x, model.slope_config.test_activation, tape=tape)


def _forward(
    model: Model,
    x: Tensor,
    mode: str = "eval",
    tape: Tape | None = None,
    params_grad: bool = True,
    capture: dict | None = None,
) -> Tensor:
    """Run the layer stack; optionally capture probes for tests and exports.

    capture (when given) is filled with:
      "signature":   list of boolean/index arrays pinning down which linear
                     region each rectifier and pool operated in
      "penultimate": activations entering the final dense layer
    """
    if mode not in ("train", "eval"):
        raise ValueError(f"mode must be 'train' or 'eval', got {mode!r}")
    expected = (x.shape[0],) + model.spec.input_shape
    if x.shape != expected:
        raise ValueError(f"batch shape {x.shape} does not match expected {expected}")

    def param(name: str) -> Tensor:
        p = model.params[name]
        if params_grad:
            return p
        return Tensor(p.data, requires_grad=False, dtype=p.data.dtype)

    last_dense = max(
        i for i, layer in enumerate(model.spec.layers) if isinstance(layer, Dense)
    )
    for i, layer in enumerate(model.spec.layers):
        if capture is not None and i == last_dense:
            capture["penultimate"] = x.data
        if isinstance(layer, Conv):
            x = ad.conv2d(
                x, param(f"{layer.name}.w"), param(f"{layer.name}.b"),
                stride=layer.stride, tape=tape,
            )
        elif isinstance(layer, Pool):
            if capture is not None:
                wins = ad._windows(x.data, layer.window, layer.window, layer.window)
                capture.setdefault("signature", []).append(
                    wins.reshape(wins.shape[:4] + (-1,)).argmax(axis=-1)
                )
            x = ad.maxpool2d(x, layer.window, tape=tape)
        elif isinstance(layer, Act):
            if capture is not None:
                capture.setdefault("signature", []).append(x.data > 0)
            x = _apply_activation(x, model, mode, tape)
        elif isinstance(layer, Flatten):
            x = ad.flatten(x, tape=tape)
        elif isinstance(layer, Dense):
            x = ad.dense(x, param(f"{layer.name}.w"), param(f"{layer.name}.b"), tape=tape)
        else:
            raise ValueError(f"unknown layer kind {layer!r}")
    return x


def forward_logits(model: Model, batch: np.ndarray, mode: str = "eval") -> np.ndarray:
    """Logits for a batch; eval mode applies the configured test activation."""
    return _forward(model, Tensor(batch), mode=mode).data


def predict_classes(model: Model, batch: np.ndarray) -> np.ndarray:
    """Argmax class per image in eval mode; ties resolve to the lowest index."""
    return forward_logits(model, batch).argmax(axis=1)


def penultimate_features(model: Model, batch: np.ndarray) -> np.ndarray:
    """Activations entering the final dense layer, in eval mode."""
    capture: dict = {}
    _forward(model, Tensor(batch), mode="eval", capture=capture)
    return capture["penultimate"]


# ---------------------------------------------------------------------------
# parameter persistence
#
# layout, all little-endian:
#   magic "SRLU" | u32 version | u32 tensor count
#   per tensor: u16 name length | name (utf-8) | u32 rank | u32 dims...
#               | float32 values (row-major)


def save_params(model: Model, path) -> None:
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

    Shapes are validated against the architecture; the mismatch error names
    the offending tensor.
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
        (rank,) = reader.unpack("<I")
        if rank > 8:
            raise ParamsFormatError(f"implausible rank {rank} for tensor {name!r}")
        dims = reader.unpack(f"<{rank}I")
        n_values = int(np.prod(dims, dtype=np.int64)) if rank else 1
        raw = reader.read(4 * n_values)
        values = np.frombuffer(raw, dtype="<f4").reshape(dims)
        params[name] = Tensor(values, requires_grad=True)
    if reader.pos != len(reader.blob):
        raise ParamsFormatError("trailing bytes after last tensor")

    reference = build_model(spec, seed=0)
    expected = {name: t.shape for name, t in reference.params.items()}
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
    ordered = {name: params[name] for name in expected}
    return Model(spec, ordered, SlopeConfig())
