"""Network description, parameter containers, initialization and the forward
/ backward driver."""

from __future__ import annotations

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
    "forward",
    "TRAINABLE_KEYS",
]

# Parameter-block keys the optimizer updates; batch-norm running statistics
# are carried in the same blocks but are not trainable.
TRAINABLE_KEYS = ("kernels", "bias", "gain", "shift", "weights")


@dataclass(frozen=True)
class _LayerSpec:
    """Base of the layer specs, each of which owns everything about its kind.
    The defaults describe a kind that keeps its input shape and has no
    parameters; ``build`` makes the runtime layer for a parameter block."""

    kind: ClassVar[str]

    def output_shape(self, shape: tuple, idx: int) -> tuple:
        """Output shape for an input ``shape``; ``idx`` labels errors."""
        return shape

    def param_count(self, shape: tuple) -> int:
        return 0

    def init_params(self, shape: tuple, rng: np.random.Generator) -> dict:
        return {}


@dataclass(frozen=True)
class Conv2DSpec(_LayerSpec):
    kind: ClassVar[str] = "conv2d"
    filters: int
    kernel: int
    stride: int = 1

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

    def param_count(self, shape):
        return self.kernel * self.kernel * shape[-1] * self.filters + self.filters

    def init_params(self, shape, rng):
        fan_in = self.kernel * self.kernel * shape[-1]
        kernels = rng.standard_normal(
            (self.kernel, self.kernel, shape[-1], self.filters)
        ) * np.sqrt(2.0 / fan_in)
        return {"kernels": kernels, "bias": np.zeros(self.filters)}

    def build(self, block: dict):
        return ConvLayer(block, self.stride)


@dataclass(frozen=True)
class BatchNormSpec(_LayerSpec):
    kind: ClassVar[str] = "batchnorm"

    def param_count(self, shape):
        return 2 * shape[-1]

    def init_params(self, shape, rng):
        c = shape[-1]
        return {
            "gain": np.ones(c),
            "shift": np.zeros(c),
            "running_mean": np.zeros(c),
            "running_var": np.ones(c),
        }

    def build(self, block: dict):
        return BatchNormLayer(block)


@dataclass(frozen=True)
class ReluSpec(_LayerSpec):
    kind: ClassVar[str] = "relu"

    def build(self, block: dict):
        return ReluLayer()


@dataclass(frozen=True)
class FlattenSpec(_LayerSpec):
    kind: ClassVar[str] = "flatten"

    def output_shape(self, shape, idx):
        return (int(np.prod(shape)),)

    def build(self, block: dict):
        return FlattenLayer()


@dataclass(frozen=True)
class DenseSpec(_LayerSpec):
    kind: ClassVar[str] = "dense"
    units: int

    def output_shape(self, shape, idx):
        if len(shape) != 1:
            raise ValueError(f"layer {idx}: dense needs a flat input, has {shape}")
        return (self.units,)

    def param_count(self, shape):
        return shape[0] * self.units + self.units

    def init_params(self, shape, rng):
        fan_in = shape[0]
        weights = rng.standard_normal((self.units, fan_in)) * np.sqrt(2.0 / fan_in)
        return {"weights": weights, "bias": np.zeros(self.units)}

    def build(self, block: dict):
        return DenseLayer(block)


@dataclass(frozen=True)
class DropoutSpec(_LayerSpec):
    kind: ClassVar[str] = "dropout"
    rate: float = 0.2

    def build(self, block: dict):
        return DropoutLayer(self.rate)


@dataclass(frozen=True)
class SigmoidSpec(_LayerSpec):
    kind: ClassVar[str] = "sigmoid"

    def build(self, block: dict):
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
    shapes = (spec.input_shape, *spec.shape_chain())
    return sum(layer.param_count(shape) for layer, shape in zip(spec.layers, shapes))


def init_params(spec: NetworkSpec, rng: np.random.Generator) -> list[dict]:
    """Fresh parameter blocks: fan-in-scaled Gaussian weights
    (std = sqrt(2 / fan_in)), zero biases, unit batch-norm gain."""
    shapes = (spec.input_shape, *spec.shape_chain())
    return [layer.init_params(shape, rng) for layer, shape in zip(spec.layers, shapes)]


class Network:
    """Binds a spec to parameter blocks and runs forward/backward passes.

    The parameter arrays are shared, not copied, so an optimizer step on the
    blocks is immediately visible here.
    """

    def __init__(self, spec: NetworkSpec, params: list[dict]):
        if len(params) != len(spec.layers):
            raise ValueError("need one parameter block per layer")
        self.spec = spec
        self.params = params
        self.layers = [layer.build(block) for layer, block in zip(spec.layers, params)]

    def forward(self, x, train: bool = False, rng: np.random.Generator | None = None):
        """Probabilities for a batch (B, H, W, C) or single input (H, W, C)."""
        x = np.asarray(x, dtype=np.float64)
        single = x.ndim == 3
        if single:
            x = x[None]
        if x.shape[1:] != self.spec.input_shape:
            raise ValueError(
                f"input shape {x.shape[1:]} does not match the network's "
                f"{self.spec.input_shape}"
            )
        for layer in self.layers:
            x = layer.forward(x, train, rng)
        return x[0] if single else x

    def backward_from_logits(self, dlogits) -> list[dict]:
        """Backpropagate a gradient taken at the final pre-sigmoid logits.

        Used with the fused sigmoid/cross-entropy gradient; the sigmoid layer
        itself is skipped. Returns per-layer gradient blocks aligned with the
        parameter blocks.
        """
        if not isinstance(self.layers[-1], SigmoidLayer):
            raise ValueError("the network must end in a sigmoid layer")
        g = np.asarray(dlogits, dtype=np.float64)
        for layer in reversed(self.layers[:-1]):
            g = layer.backward(g)
        return [dict(layer.grads) for layer in self.layers]


def forward(spec: NetworkSpec, params: list[dict], x):
    """One-shot eval-mode forward pass of a batch or a single input."""
    return Network(spec, params).forward(x)
