"""Self-contained trainable feed-forward engine.

Exactly the layer set needed by the covariance classifier: 2D convolution,
batch normalization, ReLU, flatten, dense, dropout and sigmoid, with binary
cross-entropy loss and the Adam optimizer. Everything runs on numpy arrays
in double precision.
"""

from .layers import bce_loss
from .network import (
    BatchNormSpec,
    Conv2DSpec,
    DenseSpec,
    DropoutSpec,
    FlattenSpec,
    Network,
    NetworkSpec,
    ReluSpec,
    SigmoidSpec,
    init_params,
    param_count,
)
from .optim import AdamState, adam_step, init_adam_state
from .checkpoint import FileFormatError, load_checkpoint, save_checkpoint

__all__ = [
    "AdamState",
    "BatchNormSpec",
    "Conv2DSpec",
    "DenseSpec",
    "DropoutSpec",
    "FileFormatError",
    "FlattenSpec",
    "Network",
    "NetworkSpec",
    "ReluSpec",
    "SigmoidSpec",
    "adam_step",
    "bce_loss",
    "init_adam_state",
    "init_params",
    "load_checkpoint",
    "param_count",
    "save_checkpoint",
]
