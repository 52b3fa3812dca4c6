"""Layer primitives: forward/backward functions and the runtime layer classes
used by the network container.

Activations are channel-last. Functions accept a single example (H, W, C)
or a batch (B, H, W, C); dense layers take (M,) or (B, M). Gradients are of a
scalar loss with respect to each argument.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import as_strided

__all__ = [
    "conv2d_forward",
    "conv2d_backward",
    "batchnorm_forward",
    "relu_forward",
    "relu_backward",
    "dropout",
    "dense_forward",
    "dense_backward",
    "sigmoid_forward",
    "bce_loss",
    "BATCHNORM_EPS",
    "BATCHNORM_MOMENTUM",
]

BATCHNORM_EPS = 1e-5
BATCHNORM_MOMENTUM = 0.1

# Probabilities are clamped to this interval before logs are taken.
_PROB_CLAMP = 1e-7


def _batched(x, rank):
    """View ``x`` with a leading batch axis; returns (array, had_batch)."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim == rank:
        return x[None], False
    if x.ndim == rank + 1:
        return x, True
    raise ValueError(f"expected a rank-{rank} tensor or a batch of them, got shape {x.shape}")


def _windows(x, kernel, stride):
    """Strided kernel-size windows of a (B, H, W, C) tensor:
    (B, OH, OW, C, kh, kw), a read-only view of ``x``."""
    b, h, w, c = x.shape
    sb, sh, sw, sc = x.strides
    shape = (b, (h - kernel) // stride + 1, (w - kernel) // stride + 1, c, kernel, kernel)
    return as_strided(x, shape, (sb, sh * stride, sw * stride, sc, sh, sw), writeable=False)


def conv2d_forward(x, kernels, biases, stride: int):
    """Strided 2D cross-correlation with per-filter bias, no padding.

    Parameters
    ----------
    x : array, (H, W, C) or (B, H, W, C)
    kernels : array, (kh, kw, C, F)
    biases : array, (F,)
    stride : int

    Returns
    -------
    array of shape (..., OH, OW, F) with OH = floor((H - kh)/stride + 1).
    """
    xb, had_batch = _batched(x, 3)
    kernels = np.asarray(kernels, dtype=np.float64)
    kh, kw, c_in, _ = kernels.shape
    if kh != kw:
        raise ValueError("kernels must be square")
    _, h, w, c = xb.shape
    if kh > h or kw > w:
        raise ValueError(f"kernel {kh}x{kw} larger than input {h}x{w}")
    if c != c_in:
        raise ValueError(f"input has {c} channels, kernels expect {c_in}")
    if stride < 1:
        raise ValueError("stride must be at least 1")
    # The products here and in conv2d_backward are the ones np.einsum plans
    # for "bmnkij,ijkf->bmnf" and "bmnkij,bmnf->ijkf" and np.tensordot forms,
    # written out to skip their per-call overhead. Operands, inner index order
    # and output memory layout (which fixes the summation order of later
    # reductions) match, so the results are the same bits; the exception is a
    # one-filter convolution with a 1x1 output, which einsum squeezes.
    win = _windows(xb, kh, stride)
    kmat = kernels.transpose(3, 0, 1, 2).reshape(kernels.shape[3], -1)
    out = kmat @ win.transpose(4, 5, 3, 0, 1, 2).reshape(kh * kw * c, -1)
    out = out.reshape(-1, *win.shape[:3]).transpose(1, 2, 3, 0)
    out += np.asarray(biases, dtype=np.float64)
    return out if had_batch else out[0]


def conv2d_backward(upstream, x, kernels, stride: int):
    """Gradients of a scalar loss through :func:`conv2d_forward`.

    Returns ``(input_grad, kernel_grads, bias_grads)`` for the given upstream
    gradient and the cached forward input.
    """
    xb, had_batch = _batched(x, 3)
    gb, g_batch = _batched(upstream, 3)
    if g_batch != had_batch or gb.shape[0] != xb.shape[0]:
        raise ValueError("upstream gradient batch does not match the input")
    kernels = np.asarray(kernels, dtype=np.float64)
    win = _windows(xb, kernels.shape[0], stride)
    if gb.shape[1:3] != win.shape[1:3] or gb.shape[3] != kernels.shape[3]:
        raise ValueError(
            f"upstream gradient shape {gb.shape} does not match the forward output"
        )
    kh, kw, c, f = kernels.shape
    dk = win.transpose(3, 4, 5, 0, 1, 2).reshape(c * kh * kw, -1) @ gb.reshape(-1, f)
    dk = dk.reshape(c, kh, kw, f).transpose(1, 2, 0, 3)
    db = gb.sum(axis=(0, 1, 2))
    dx = np.zeros_like(xb)
    b, oh, ow, _ = gb.shape
    g2 = gb.reshape(-1, f)
    for i in range(kh):
        for j in range(kh):
            dx[:, i : i + stride * oh : stride, j : j + stride * ow : stride, :] += (
                np.dot(g2, kernels[i, j].T).reshape(b, oh, ow, c)
            )
    return (dx if had_batch else dx[0]), dk, db


def batchnorm_forward(
    x,
    gain,
    shift,
    mode: str,
    running_mean,
    running_var,
    momentum: float = BATCHNORM_MOMENTUM,
    eps: float = BATCHNORM_EPS,
):
    """Per-channel batch normalization over batch and spatial axes.

    In ``"train"`` mode the batch statistics normalize the input and the
    running statistics are updated in place (requires batch size >= 2). In
    ``"eval"`` mode the running statistics are used unchanged.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim < 2:
        raise ValueError("batch normalization expects at least (B, C)")
    if mode == "train":
        return _batchnorm_train(x, gain, shift, running_mean, running_var, momentum, eps)[0]
    if mode != "eval":
        raise ValueError(f"unknown mode {mode!r}")
    return gain * (x - running_mean) / np.sqrt(running_var + eps) + shift


def _batchnorm_train(x, gain, shift, running_mean, running_var, momentum, eps):
    """Train-mode batch normalization of a (B, ..., C) array; returns
    ``(out, mean, inv_std)`` with the batch statistics the backward pass needs."""
    if x.shape[0] < 2:
        raise ValueError("batch normalization needs a batch of at least 2 in train mode")
    axes = tuple(range(x.ndim - 1))
    mean = x.mean(axis=axes)
    var = x.var(axis=axes)
    running_mean *= 1.0 - momentum
    running_mean += momentum * mean
    running_var *= 1.0 - momentum
    running_var += momentum * var
    out = gain * (x - mean) / np.sqrt(var + eps) + shift
    return out, mean, 1.0 / np.sqrt(var + eps)


def relu_forward(x):
    return np.maximum(np.asarray(x, dtype=np.float64), 0.0)


def relu_backward(upstream, x):
    """Gradient mask of the rectifier; the subgradient at 0 is 0."""
    return np.asarray(upstream) * (np.asarray(x) > 0.0)


def dropout(x, rate: float = 0.2, mode: str = "eval", seed=None):
    """Inverted dropout: zero entries with probability ``rate`` in train mode
    and scale survivors by 1/(1-rate); identity in eval mode.

    ``seed`` may be an integer or a ``numpy.random.Generator``.
    """
    if not 0.0 <= rate < 1.0:
        raise ValueError("dropout rate must lie in [0, 1)")
    x = np.asarray(x, dtype=np.float64)
    if mode == "eval" or rate == 0.0:
        return x.copy()
    if mode != "train":
        raise ValueError(f"unknown mode {mode!r}")
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    mask = rng.random(x.shape) >= rate
    return x * mask / (1.0 - rate)


def dense_forward(x, weights, biases):
    """Affine map ``W x + b`` with ``W`` of shape (M_out, M_in)."""
    xb, had_batch = _batched(x, 1)
    weights = np.asarray(weights, dtype=np.float64)
    if xb.shape[1] != weights.shape[1]:
        raise ValueError(
            f"input width {xb.shape[1]} does not match weight shape {weights.shape}"
        )
    out = xb @ weights.T + np.asarray(biases, dtype=np.float64)
    return out if had_batch else out[0]


def dense_backward(upstream, x, weights):
    """Gradients through :func:`dense_forward`: (input, weights, biases)."""
    xb, had_batch = _batched(x, 1)
    gb, _ = _batched(upstream, 1)
    if gb.shape[0] != xb.shape[0]:
        raise ValueError("upstream gradient batch does not match the input")
    dw = gb.T @ xb
    db = gb.sum(axis=0)
    dx = gb @ np.asarray(weights, dtype=np.float64)
    return (dx if had_batch else dx[0]), dw, db


def sigmoid_forward(x):
    """Numerically stable logistic function, strictly inside (0, 1)."""
    x = np.asarray(x, dtype=np.float64)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    # Large positive inputs round to exactly 1.0 in double precision; pull
    # them back inside the open interval.
    np.minimum(out, 1.0 - 1e-16, out=out)
    np.maximum(out, 1e-300, out=out)
    return out


def bce_loss(p, z):
    """Binary cross-entropy summed over label entries.

    Returns ``(loss, gradient)`` where the gradient is taken with respect to
    the pre-sigmoid logits in the fused form ``p - z``, which is exact and
    avoids log overflow. For the loss value itself the probabilities are
    clamped to [1e-7, 1 - 1e-7].
    """
    p = np.asarray(p, dtype=np.float64)
    z = np.asarray(z, dtype=np.float64)
    if p.shape != z.shape:
        raise ValueError(f"probability shape {p.shape} does not match labels {z.shape}")
    pc = np.clip(p, _PROB_CLAMP, 1.0 - _PROB_CLAMP)
    loss = float(-np.sum(z * np.log(pc) + (1.0 - z) * np.log(1.0 - pc)))
    return loss, p - z


# ---------------------------------------------------------------------------
# Runtime layer objects used by the network container. Each binds a parameter
# block, caches what its backward pass needs, and leaves gradients in
# ``self.grads`` keyed like the parameter block.
# ---------------------------------------------------------------------------


class ConvLayer:
    def __init__(self, params: dict, stride: int):
        self.params = params
        self.stride = stride
        self.grads: dict = {}
        self._x = None

    def forward(self, x, train: bool, rng):
        self._x = x
        return conv2d_forward(x, self.params["kernels"], self.params["bias"], self.stride)

    def backward(self, g):
        dx, dk, db = conv2d_backward(g, self._x, self.params["kernels"], self.stride)
        self.grads = {"kernels": dk, "bias": db}
        return dx


class BatchNormLayer:
    def __init__(self, params: dict, eps: float = BATCHNORM_EPS, momentum: float = BATCHNORM_MOMENTUM):
        self.params = params
        self.eps = eps
        self.momentum = momentum
        self.grads: dict = {}
        self._cache = None

    def forward(self, x, train: bool, rng):
        p = self.params
        if train:
            out, mean, inv_std = _batchnorm_train(
                x, p["gain"], p["shift"], p["running_mean"], p["running_var"],
                self.momentum, self.eps,
            )
            self._cache = ("train", x, mean, inv_std)
        else:
            out = batchnorm_forward(
                x, p["gain"], p["shift"], "eval", p["running_mean"], p["running_var"],
                self.momentum, self.eps,
            )
            self._cache = ("eval", None, None, 1.0 / np.sqrt(p["running_var"] + self.eps))
        return out

    def backward(self, g):
        mode, x, mean, inv_std = self._cache
        gain = self.params["gain"]
        if mode == "eval":
            self.grads = {}
            return g * gain * inv_std
        axes = tuple(range(x.ndim - 1))
        xhat = (x - mean) * inv_std
        self.grads = {"gain": np.sum(g * xhat, axis=axes), "shift": np.sum(g, axis=axes)}
        dxhat = g * gain
        dx = (
            dxhat
            - dxhat.mean(axis=axes)
            - xhat * np.mean(dxhat * xhat, axis=axes)
        ) * inv_std
        return dx


class ReluLayer:
    def __init__(self):
        self.grads: dict = {}
        self._x = None

    def forward(self, x, train: bool, rng):
        self._x = x
        return relu_forward(x)

    def backward(self, g):
        return relu_backward(g, self._x)


class FlattenLayer:
    def __init__(self):
        self.grads: dict = {}
        self._shape = None

    def forward(self, x, train: bool, rng):
        self._shape = x.shape
        return x.reshape(x.shape[0], -1)

    def backward(self, g):
        return g.reshape(self._shape)


class DropoutLayer:
    def __init__(self, rate: float):
        if not 0.0 <= rate < 1.0:
            raise ValueError("dropout rate must lie in [0, 1)")
        self.rate = rate
        self.grads: dict = {}
        self._mask = None

    def forward(self, x, train: bool, rng):
        if not train or self.rate == 0.0:
            self._mask = None
            return x
        if rng is None:
            raise ValueError("dropout in train mode needs a random generator")
        self._mask = (rng.random(x.shape) >= self.rate) / (1.0 - self.rate)
        return x * self._mask

    def backward(self, g):
        return g if self._mask is None else g * self._mask


class DenseLayer:
    def __init__(self, params: dict):
        self.params = params
        self.grads: dict = {}
        self._x = None

    def forward(self, x, train: bool, rng):
        self._x = x
        return dense_forward(x, self.params["weights"], self.params["bias"])

    def backward(self, g):
        dx, dw, db = dense_backward(g, self._x, self.params["weights"])
        self.grads = {"weights": dw, "bias": db}
        return dx


class SigmoidLayer:
    def __init__(self):
        self.grads: dict = {}
        self._out = None

    def forward(self, x, train: bool, rng):
        self._out = sigmoid_forward(x)
        return self._out

    def backward(self, g):
        return g * self._out * (1.0 - self._out)
