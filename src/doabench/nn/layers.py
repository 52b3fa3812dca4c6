"""Layer primitives: the runtime layer classes the network container runs,
one per layer kind, and the binary cross-entropy loss.

A runtime layer binds its spec (which holds ``stride`` and ``rate``), a
parameter block and gradient arrays shaped like it (empty without parameters),
caches what its backward pass needs, and writes the gradients of a scalar
loss into the gradient arrays.
Activations are channel-last batches: (B, H, W, C) for convolutions, (B, M)
for dense layers. The layers check nothing: the network checks its input
shape and the gradient it backpropagates, and the layer specs their fields.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import as_strided

__all__ = ["bce_loss"]

_BATCHNORM_EPS = 1e-5
_BATCHNORM_MOMENTUM = 0.1

# Probabilities are clamped to this interval before logs are taken.
_PROB_CLAMP = 1e-7


def _windows(x, kernel, stride):
    """Strided kernel-size windows of a (B, H, W, C) tensor:
    (B, OH, OW, C, kh, kw), a read-only view of ``x``."""
    b, h, w, c = x.shape
    sb, sh, sw, sc = x.strides
    shape = (b, (h - kernel) // stride + 1, (w - kernel) // stride + 1, c, kernel, kernel)
    return as_strided(x, shape, (sb, sh * stride, sw * stride, sc, sh, sw), writeable=False)


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


class _Layer:
    def __init__(self, spec, params: dict, grads: dict):
        self.spec = spec
        self.params = params
        self.grads = grads


class ConvLayer(_Layer):
    """Strided 2D cross-correlation with per-filter bias, no padding: kernels
    (k, k, C, F) map (B, H, W, C) to (B, OH, OW, F), OH = (H - k)//stride + 1."""

    def forward(self, x, train: bool, rng):
        self._x = x
        kernels = self.params["kernels"]
        k, _, c, f = kernels.shape
        # The products here and in backward compute what np.einsum
        # ("bmnkij,ijkf->bmnf", "bmnkij,bmnf->ijkf") and one np.tensordot per
        # kernel offset compute, without their per-call overhead. Each output
        # element is the same dot product in the same inner index order, and
        # the output memory layout (which fixes the summation order of later
        # reductions) matches, so the results are the same bits; the
        # exception is a one-filter convolution with a 1x1 output, which
        # einsum squeezes. The im2col matrix (rows in (i, j, c) order) is
        # kept for the kernel gradient.
        win = _windows(x, k, self.spec.stride)
        self._cols = win.transpose(4, 5, 3, 0, 1, 2).reshape(k * k * c, -1)
        out = kernels.transpose(3, 0, 1, 2).reshape(f, -1) @ self._cols
        out = out.reshape(-1, *win.shape[:3]).transpose(1, 2, 3, 0)
        out += self.params["bias"]
        return out

    def backward(self, g, input_grad: bool = True):
        """Parameter gradients into ``self.grads``; returns the input
        gradient, or None when ``input_grad`` is false."""
        kernels, s = self.params["kernels"], self.spec.stride
        k, _, c, f = kernels.shape
        g2 = g.reshape(-1, f)
        np.matmul(self._cols, g2, out=self.grads["kernels"].reshape(-1, f))
        g.sum(axis=(0, 1, 2), out=self.grads["bias"])
        if not input_grad:
            return None
        b, oh, ow, _ = g.shape
        # Column block (i, j) of one product is g2 @ kernels[i, j].T; the
        # offsets are then added in the same order as one product each.
        prods = (g2 @ kernels.reshape(-1, f).T).reshape(b, oh, ow, k, k, c)
        dx = np.zeros_like(self._x)
        for i in range(k):
            for j in range(k):
                dx[:, i : i + s * oh : s, j : j + s * ow : s, :] += prods[:, :, :, i, j, :]
        return dx


class BatchNormLayer(_Layer):
    """Per-channel batch normalization over the batch and spatial axes.

    In train mode the batch statistics normalize the input and update the
    running statistics in place (needs a batch of at least 2); in eval mode
    the running statistics are used unchanged.
    """

    def forward(self, x, train: bool, rng):
        p = self.params
        if not train:
            std = np.sqrt(p["running_var"] + _BATCHNORM_EPS)
            return p["gain"] * (x - p["running_mean"]) / std + p["shift"]
        if x.shape[0] < 2:
            raise ValueError("batch normalization needs a batch of at least 2 in train mode")
        axes = tuple(range(x.ndim - 1))
        mean = x.mean(axis=axes)
        # The centred input serves the variance (the operations of np.var),
        # the output and backward's normalized input.
        d = x - mean
        var = (d * d).mean(axis=axes)
        p["running_mean"] *= 1.0 - _BATCHNORM_MOMENTUM
        p["running_mean"] += _BATCHNORM_MOMENTUM * mean
        p["running_var"] *= 1.0 - _BATCHNORM_MOMENTUM
        p["running_var"] += _BATCHNORM_MOMENTUM * var
        std = np.sqrt(var + _BATCHNORM_EPS)
        self._cache = (d, 1.0 / std)
        return p["gain"] * d / std + p["shift"]

    def backward(self, g):
        """The gradients of the last train-mode forward pass."""
        d, inv_std = self._cache
        gain = self.params["gain"]
        axes = tuple(range(d.ndim - 1))
        xhat = d * inv_std
        np.sum(g * xhat, axis=axes, out=self.grads["gain"])
        np.sum(g, axis=axes, out=self.grads["shift"])
        dxhat = g * gain
        dx = (
            dxhat
            - dxhat.mean(axis=axes)
            - xhat * np.mean(dxhat * xhat, axis=axes)
        ) * inv_std
        return dx


class ReluLayer(_Layer):
    def forward(self, x, train: bool, rng):
        self._x = x
        return np.maximum(x, 0.0)

    def backward(self, g):
        # The subgradient at 0 is 0.
        return g * (self._x > 0.0)


class FlattenLayer(_Layer):
    def forward(self, x, train: bool, rng):
        self._shape = x.shape
        return x.reshape(x.shape[0], -1)

    def backward(self, g):
        return g.reshape(self._shape)


class DropoutLayer(_Layer):
    """Inverted dropout: in train mode each entry is zeroed with probability
    ``rate`` and survivors are scaled by 1/(1-rate); identity in eval mode."""

    def forward(self, x, train: bool, rng):
        if not train or self.spec.rate == 0.0:
            self._mask = None
            return x
        if rng is None:
            raise ValueError("dropout in train mode needs a random generator")
        self._mask = (rng.random(x.shape) >= self.spec.rate) / (1.0 - self.spec.rate)
        return x * self._mask

    def backward(self, g):
        return g if self._mask is None else g * self._mask


class DenseLayer(_Layer):
    """Affine map ``W x + b`` of a (B, M_in) batch, ``W`` of shape (M_out, M_in)."""

    def forward(self, x, train: bool, rng):
        self._x = x
        return x @ self.params["weights"].T + self.params["bias"]

    def backward(self, g):
        np.matmul(g.T, self._x, out=self.grads["weights"])
        g.sum(axis=0, out=self.grads["bias"])
        return g @ self.params["weights"]


class SigmoidLayer(_Layer):
    """Numerically stable logistic function, strictly inside (0, 1)."""

    def forward(self, x, train: bool, rng):
        # 1/(1+e^-x) for x >= 0 and e^x/(1+e^x) below, so exp never overflows
        e = np.exp(-np.abs(x))
        d = 1.0 + e
        out = np.where(x >= 0, 1.0 / d, e / d)
        # Large positive inputs round to exactly 1.0 in double precision; pull
        # them back inside the open interval.
        np.minimum(out, 1.0 - 1e-16, out=out)
        np.maximum(out, 1e-300, out=out)
        self._out = out
        return out

    def backward(self, g):
        return g * self._out * (1.0 - self._out)
