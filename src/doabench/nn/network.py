"""Network description, parameter containers, initialization and the forward
/ backward driver."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .layers import (
    BatchNormLayer,
    ConvLayer,
    DenseLayer,
    DropoutLayer,
    FlattenLayer,
    ReluLayer,
    SigmoidLayer,
)

__all__ = [
    "Conv2DSpec",
    "BatchNormSpec",
    "ReluSpec",
    "FlattenSpec",
    "DenseSpec",
    "DropoutSpec",
    "SigmoidSpec",
    "LAYER_KINDS",
    "NetworkSpec",
    "Network",
    "init_params",
    "param_count",
    "TRAINABLE_KEYS",
]

# Parameter-block keys the optimizer updates; batch-norm running statistics
# are carried in the same blocks but are not trainable.
TRAINABLE_KEYS = ("kernels", "bias", "gain", "shift", "weights")

# How ``init_params`` fills each array, by key: kernels and weight matrices are
# Gaussian with std sqrt(2 / fan_in), fan_in being k*k*C or the input width.
_INITIALIZERS = {
    "kernels": lambda shape, rng: rng.standard_normal(shape) * np.sqrt(2.0 / math.prod(shape[:-1])),
    "weights": lambda shape, rng: rng.standard_normal(shape) * np.sqrt(2.0 / shape[-1]),
    **dict.fromkeys(("bias", "shift", "running_mean"), lambda shape, rng: np.zeros(shape)),
    **dict.fromkeys(("gain", "running_var"), lambda shape, rng: np.ones(shape)),
}


@dataclass(frozen=True)
class _LayerSpec:
    """Base of the layer specs, each of which owns everything about its kind.
    The defaults describe a kind that keeps its input shape and has no
    parameters. ``param_shapes`` gives each parameter array's shape by key,
    in initialization order; ``build`` makes the runtime layer for a parameter
    block and the arrays its gradients are written to."""

    kind: ClassVar[str]
    _counts = ()  # fields that are sizes or step counts, each an integer of at least 1

    def __post_init__(self):
        for name in self._counts:
            value = getattr(self, name)
            if not (isinstance(value, (int, np.integer)) and value >= 1):
                raise ValueError(f"{self.kind} {name} must be an integer of at least 1, "
                                 f"got {value!r}")

    def output_shape(self, shape: tuple, idx: int) -> tuple:
        """Output shape for an input ``shape``; ``idx`` labels errors."""
        return shape

    def param_shapes(self, shape: tuple) -> dict:
        return {}


@dataclass(frozen=True)
class Conv2DSpec(_LayerSpec):
    kind: ClassVar[str] = "conv2d"
    filters: int
    kernel: int
    stride: int = 1
    _counts = ("filters", "kernel", "stride")

    def output_shape(self, shape, idx):
        if len(shape) != 3:
            raise ValueError(f"layer {idx}: convolution needs a 3D input, has {shape}")
        h, w, _ = shape
        oh = (h - self.kernel) // self.stride + 1
        ow = (w - self.kernel) // self.stride + 1
        if self.kernel > h or self.kernel > w or oh < 1 or ow < 1:
            raise ValueError(
                f"layer {idx}: kernel {self.kernel} stride {self.stride} "
                f"reduces {h}x{w} to an empty output"
            )
        return (oh, ow, self.filters)

    def param_shapes(self, shape):
        return {"kernels": (self.kernel, self.kernel, shape[-1], self.filters),
                "bias": (self.filters,)}

    def build(self, block, grads):
        return ConvLayer(block, grads, self.stride)


@dataclass(frozen=True)
class BatchNormSpec(_LayerSpec):
    kind: ClassVar[str] = "batchnorm"

    def param_shapes(self, shape):
        return dict.fromkeys(("gain", "shift", "running_mean", "running_var"), shape[-1:])

    def build(self, block, grads):
        return BatchNormLayer(block, grads)


@dataclass(frozen=True)
class ReluSpec(_LayerSpec):
    kind: ClassVar[str] = "relu"

    def build(self, block, grads):
        return ReluLayer()


@dataclass(frozen=True)
class FlattenSpec(_LayerSpec):
    kind: ClassVar[str] = "flatten"

    def output_shape(self, shape, idx):
        return (int(np.prod(shape)),)

    def build(self, block, grads):
        return FlattenLayer()


@dataclass(frozen=True)
class DenseSpec(_LayerSpec):
    kind: ClassVar[str] = "dense"
    units: int
    _counts = ("units",)

    def output_shape(self, shape, idx):
        if len(shape) != 1:
            raise ValueError(f"layer {idx}: dense needs a flat input, has {shape}")
        return (self.units,)

    def param_shapes(self, shape):
        return {"weights": (self.units, shape[0]), "bias": (self.units,)}

    def build(self, block, grads):
        return DenseLayer(block, grads)


@dataclass(frozen=True)
class DropoutSpec(_LayerSpec):
    kind: ClassVar[str] = "dropout"
    rate: float = 0.2

    def __post_init__(self):
        if not 0.0 <= self.rate < 1.0:
            raise ValueError(f"dropout rate must lie in [0, 1), got {self.rate!r}")

    def build(self, block, grads):
        return DropoutLayer(self.rate)


@dataclass(frozen=True)
class SigmoidSpec(_LayerSpec):
    kind: ClassVar[str] = "sigmoid"

    def build(self, block, grads):
        return SigmoidLayer()


# Every layer kind by the name checkpoints store for it.
LAYER_KINDS = {
    spec.kind: spec
    for spec in (
        Conv2DSpec, BatchNormSpec, ReluSpec, FlattenSpec, DenseSpec, DropoutSpec, SigmoidSpec
    )
}


@dataclass(frozen=True)
class NetworkSpec:
    """Ordered layer descriptors plus the expected input shape (H, W, C)."""

    input_shape: tuple[int, int, int]
    layers: tuple

    def __post_init__(self):
        object.__setattr__(self, "input_shape", tuple(int(d) for d in self.input_shape))
        object.__setattr__(self, "layers", tuple(self.layers))
        self.shape_chain()

    def shape_chain(self) -> list[tuple]:
        """Output shape after every layer; raises on incompatible chains."""
        shape = self.input_shape
        chain = []
        for idx, layer in enumerate(self.layers):
            if LAYER_KINDS.get(getattr(layer, "kind", None)) is not type(layer):
                raise ValueError(f"layer {idx}: unknown layer descriptor {layer!r}")
            shape = layer.output_shape(shape, idx)
            chain.append(shape)
        return chain

    def param_shapes(self) -> list[dict]:
        """Every layer's parameter shapes by key, in initialization order."""
        shapes = (self.input_shape, *self.shape_chain())
        return [layer.param_shapes(shape) for layer, shape in zip(self.layers, shapes)]

    def check_params(self, params: list[dict]) -> None:
        """Raise unless ``params`` holds one block per layer with exactly that
        layer's keys and shapes, naming the first layer that differs."""
        shapes = self.param_shapes()
        if len(params) != len(shapes):
            raise ValueError("need one parameter block per layer, "
                             f"got {len(params)} blocks for {len(shapes)} layers")
        for idx, (block, expected) in enumerate(zip(params, shapes)):
            found = {key: np.shape(value) for key, value in block.items()}
            if found != expected:
                raise ValueError(f"layer {idx} ({self.layers[idx].kind}): parameter shapes "
                                 f"{found} do not match the spec's {expected}")

    @property
    def output_length(self) -> int:
        shape = self.shape_chain()[-1]
        if len(shape) != 1:
            raise ValueError("the network does not end in a flat output")
        return shape[0]


def param_count(spec: NetworkSpec) -> int:
    """Exact trainable-parameter count in closed form.

    Convolutions contribute ``kernel^2 * C_in * filters + filters``; batch
    norm contributes ``2 * C``; dense layers ``M_in * M_out + M_out``.
    Running statistics are not trainable and are not counted.
    """
    return sum(math.prod(shape) for block in spec.param_shapes()
               for key, shape in block.items() if key in TRAINABLE_KEYS)


def init_params(spec: NetworkSpec, rng: np.random.Generator) -> list[dict]:
    """Fresh parameter blocks: fan-in-scaled Gaussian weights
    (std = sqrt(2 / fan_in)), zero biases, unit batch-norm gain."""
    return [{key: _INITIALIZERS[key](shape, rng) for key, shape in block.items()}
            for block in spec.param_shapes()]


class Network:
    """Binds a spec to parameter blocks and runs forward/backward passes.

    The trainable arrays are copied into row 0 of one (2, P) buffer,
    ``flat``, in block order and, within a block, in key order; row 1 holds
    their gradients. ``params`` are the network's own blocks, whose trainable
    arrays are views of row 0, so an update of ``flat[0]`` is immediately
    visible here; the caller's blocks are left alone.
    """

    def __init__(self, spec: NetworkSpec, params: list[dict]):
        spec.check_params(params)
        self.spec = spec
        self.flat = np.zeros((2, param_count(spec)))
        self.params, self.grads, start = [], [], 0
        for block in params:
            own, grads = {}, {}
            for key, value in block.items():
                if key in TRAINABLE_KEYS:
                    stop = start + value.size
                    own[key], grads[key] = (r[start:stop].reshape(value.shape) for r in self.flat)
                    own[key][...] = value
                    start = stop
                else:
                    own[key] = value.copy()
            self.params.append(own)
            self.grads.append(grads)
        self.layers = [layer.build(block, grads) for layer, block, grads
                       in zip(spec.layers, self.params, self.grads)]
        self._train = False  # the mode of the last forward pass

    def forward(self, x, train: bool = False, rng: np.random.Generator | None = None):
        """Probabilities for a batch (B, H, W, C)."""
        x = np.asarray(x, dtype=np.float64)
        if x.shape[1:] != self.spec.input_shape:
            raise ValueError(
                f"input shape {x.shape[1:]} does not match the network's "
                f"{self.spec.input_shape}"
            )
        for layer in self.layers:
            x = layer.forward(x, train, rng)
        self._train = train
        return x

    def backward_from_logits(self, dlogits) -> list[dict]:
        """Backpropagate a gradient taken at the final pre-sigmoid logits.

        Used with the fused sigmoid/cross-entropy gradient; the sigmoid layer
        itself is skipped. The gradient has the shape of the last forward
        output as a batch, and that pass must have run in train mode. The
        parameter gradients are written into ``flat[1]``; returns the
        per-layer gradient blocks, views of it aligned with the parameter
        blocks. The gradient at the network input is not formed.
        """
        sigmoid = self.layers[-1]
        if not isinstance(sigmoid, SigmoidLayer):
            raise ValueError("the network must end in a sigmoid layer")
        g = np.asarray(dlogits, dtype=np.float64)
        if sigmoid._out is None or g.shape != sigmoid._out.shape:
            raise ValueError(f"gradient shape {g.shape} does not match the last forward output")
        if not self._train:
            raise ValueError("backward needs a train-mode forward pass")
        first, *rest = self.layers[:-1]
        for layer in reversed(rest):
            g = layer.backward(g)
        if isinstance(first, ConvLayer):
            first.backward(g, input_grad=False)
        else:
            first.backward(g)
        return self.grads
