"""Layer primitives: forward/backward functions and the runtime layer classes
used by the network container.

Activations are channel-last. Functions take a batch: (B, H, W, C) for
convolutions, (B, M) for dense layers. Gradients are of a scalar loss with
respect to each argument.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import as_strided

__all__ = [
    "conv2d_forward",
    "conv2d_backward",
    "dense_forward",
    "dense_backward",
    "sigmoid_forward",
    "bce_loss",
]

_BATCHNORM_EPS = 1e-5
_BATCHNORM_MOMENTUM = 0.1

# Probabilities are clamped to this interval before logs are taken.
_PROB_CLAMP = 1e-7


def _batch(x, rank):
    """``x`` as a float64 batch of rank-``rank`` tensors."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != rank + 1:
        raise ValueError(f"expected a batch of rank-{rank} tensors, got shape {x.shape}")
    return x


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
    x : array, (B, H, W, C)
    kernels : array, (kh, kw, C, F)
    biases : array, (F,)
    stride : int

    Returns
    -------
    array of shape (B, OH, OW, F) with OH = floor((H - kh)/stride + 1).
    """
    xb = _batch(x, 3)
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
    return out


def conv2d_backward(upstream, x, kernels, stride: int):
    """Gradients of a scalar loss through :func:`conv2d_forward`.

    Returns ``(input_grad, kernel_grads, bias_grads)`` for the given upstream
    gradient and the cached forward input.
    """
    xb = _batch(x, 3)
    gb = _batch(upstream, 3)
    if gb.shape[0] != xb.shape[0]:
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
    return dx, dk, db


def dense_forward(x, weights, biases):
    """Affine map ``W x + b`` of a (B, M_in) batch, ``W`` of shape (M_out, M_in)."""
    xb = _batch(x, 1)
    weights = np.asarray(weights, dtype=np.float64)
    if xb.shape[1] != weights.shape[1]:
        raise ValueError(
            f"input width {xb.shape[1]} does not match weight shape {weights.shape}"
        )
    return xb @ weights.T + np.asarray(biases, dtype=np.float64)


def dense_backward(upstream, x, weights):
    """Gradients through :func:`dense_forward`: (input, weights, biases)."""
    xb = _batch(x, 1)
    gb = _batch(upstream, 1)
    if gb.shape[0] != xb.shape[0]:
        raise ValueError("upstream gradient batch does not match the input")
    dw = gb.T @ xb
    db = gb.sum(axis=0)
    dx = gb @ np.asarray(weights, dtype=np.float64)
    return dx, dw, db


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
    """Per-channel batch normalization over the batch and spatial axes.

    In train mode the batch statistics normalize the input and update the
    running statistics in place (needs a batch of at least 2); in eval mode
    the running statistics are used unchanged.
    """

    def __init__(self, params: dict):
        self.params = params
        self.grads: dict = {}
        self._cache = None

    def forward(self, x, train: bool, rng):
        p = self.params
        if train:
            if x.shape[0] < 2:
                raise ValueError("batch normalization needs a batch of at least 2 in train mode")
            axes = tuple(range(x.ndim - 1))
            mean = x.mean(axis=axes)
            var = x.var(axis=axes)
            p["running_mean"] *= 1.0 - _BATCHNORM_MOMENTUM
            p["running_mean"] += _BATCHNORM_MOMENTUM * mean
            p["running_var"] *= 1.0 - _BATCHNORM_MOMENTUM
            p["running_var"] += _BATCHNORM_MOMENTUM * var
        else:
            mean, var = p["running_mean"], p["running_var"]
        std = np.sqrt(var + _BATCHNORM_EPS)
        # Eval mode keeps no input: its backward pass is a per-channel scale.
        self._cache = (x if train else None, mean, 1.0 / std)
        return p["gain"] * (x - mean) / std + p["shift"]

    def backward(self, g):
        x, mean, inv_std = self._cache
        gain = self.params["gain"]
        if x is None:
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
        return np.maximum(x, 0.0)

    def backward(self, g):
        # The subgradient at 0 is 0.
        return g * (self._x > 0.0)


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
    """Inverted dropout: in train mode each entry is zeroed with probability
    ``rate`` and survivors are scaled by 1/(1-rate); identity in eval mode."""

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
