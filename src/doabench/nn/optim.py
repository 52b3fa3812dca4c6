"""Adam optimizer over the per-layer parameter blocks."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .network import TRAINABLE_KEYS

__all__ = ["AdamState", "init_adam_state", "adam_step"]

_BETA1 = 0.9
_BETA2 = 0.999
_EPS = 1e-8


@dataclass
class AdamState:
    """First/second moment accumulators shaped like the parameter blocks."""

    moments1: list[dict]
    moments2: list[dict]
    step: int = 0
    lr: float = 0.001


def _zero_moments(params: list[dict]) -> list[dict]:
    return [
        {k: np.zeros_like(v) for k, v in block.items() if k in TRAINABLE_KEYS}
        for block in params
    ]


def init_adam_state(params: list[dict], lr: float = 0.001) -> AdamState:
    return AdamState(_zero_moments(params), _zero_moments(params), step=0, lr=lr)


def adam_step(state: AdamState, params: list[dict], grads: list[dict]):
    """One Adam update with bias correction; parameters and state are updated
    in place and returned."""
    if len(grads) != len(params):
        raise ValueError("need one gradient block per parameter block")
    state.step += 1
    correct1 = 1.0 - _BETA1**state.step
    correct2 = 1.0 - _BETA2**state.step
    scale = state.lr * np.sqrt(correct2) / correct1
    for block, gblock, m1, m2 in zip(params, grads, state.moments1, state.moments2):
        for key, g in gblock.items():
            if key not in m1:
                raise ValueError(f"gradient for unknown parameter {key!r}")
            if g.shape != block[key].shape:
                raise ValueError(f"gradient shape mismatch for {key!r}")
            m1[key] *= _BETA1
            m1[key] += (1.0 - _BETA1) * g
            m2[key] *= _BETA2
            m2[key] += (1.0 - _BETA2) * g * g
            block[key] -= scale * m1[key] / (np.sqrt(m2[key]) + _EPS * np.sqrt(correct2))
    return params, state
