"""Adam optimizer over the per-layer parameter blocks."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .network import TRAINABLE_KEYS

__all__ = ["AdamState", "init_adam_state", "adam_step"]

_BETA1 = 0.9
_BETA2 = 0.999
_EPS = 1e-8


@dataclass
class AdamState:
    """First/second moment accumulators shaped like the parameter blocks.

    Made by :func:`init_adam_state`, which moves the trainable arrays into one
    flat vector and leaves views of it in the blocks. The moments are views of
    two flat vectors laid out the same way, so a step is a few operations on
    whole vectors.
    """

    moments1: list[dict]
    moments2: list[dict]
    step: int = 0
    lr: float = 0.001
    # Per-block views of the flat parameter vector, checked against the
    # blocks each step; the rows of `_flat` are the parameters, the moments, a
    # gradient buffer and a scratch buffer.
    _params: list[dict] | None = field(default=None, repr=False)
    _flat: np.ndarray | None = field(default=None, repr=False)


def _block_views(vector: np.ndarray, params: list[dict]) -> list[dict]:
    """Views of ``vector`` shaped like the trainable arrays of ``params``, in
    block order and, within a block, in the block's key order."""
    views, start = [], 0
    for block in params:
        views.append({})
        for key, value in block.items():
            if key in TRAINABLE_KEYS:
                stop = start + value.size
                views[-1][key] = vector[start:stop].reshape(value.shape)
                start = stop
    return views


def init_adam_state(params: list[dict], lr: float = 0.001) -> AdamState:
    """Fresh state for ``params``, whose trainable arrays are replaced by
    views of the state's flat parameter vector holding the same values."""
    total = sum(v.size for block in params for k, v in block.items() if k in TRAINABLE_KEYS)
    flat = np.zeros((5, total))
    views = _block_views(flat[0], params)
    for block, vblock in zip(params, views):
        for key, view in vblock.items():
            view[...] = block[key]
            block[key] = view
    return AdamState(
        _block_views(flat[1], params), _block_views(flat[2], params),
        step=0, lr=lr, _params=views, _flat=flat,
    )


def adam_step(state: AdamState, params: list[dict], grads: list[dict]):
    """One Adam update with bias correction; parameters and state are updated
    in place and returned.

    Every trainable array needs a gradient of its shape, and the blocks must
    still hold the arrays :func:`init_adam_state` gave them.
    """
    if len(grads) != len(params):
        raise ValueError("need one gradient block per parameter block")
    gathered = []
    for block, gblock, pviews in zip(params, grads, state._params):
        for key, g in gblock.items():
            if key not in pviews:
                raise ValueError(f"gradient for unknown parameter {key!r}")
            if g.shape != pviews[key].shape:
                raise ValueError(f"gradient shape mismatch for {key!r}")
        for key, view in pviews.items():
            if block.get(key) is not view:
                raise ValueError(f"parameter {key!r} is not the array the optimizer updates")
            if key not in gblock:
                raise ValueError(f"no gradient for parameter {key!r}")
            gathered.append(gblock[key])
    state.step += 1
    correct1 = 1.0 - _BETA1**state.step
    correct2 = 1.0 - _BETA2**state.step
    scale = state.lr * np.sqrt(correct2) / correct1
    p, m1, m2, g, tmp = state._flat
    np.concatenate(gathered, axis=None, out=g)
    # The per-element roundings of
    #   m1 = m1*b1 + (1-b1)*g;  m2 = m2*b2 + (1-b2)*g*g
    #   p -= scale*m1 / (sqrt(m2) + eps*sqrt(correct2))
    # each in this order, in place.
    m1 *= _BETA1
    np.multiply(g, 1.0 - _BETA1, out=tmp)
    m1 += tmp
    m2 *= _BETA2
    np.multiply(g, 1.0 - _BETA2, out=tmp)
    tmp *= g
    m2 += tmp
    np.sqrt(m2, out=tmp)
    tmp += _EPS * np.sqrt(correct2)
    np.multiply(m1, scale, out=g)
    g /= tmp
    p -= g
    return params, state
