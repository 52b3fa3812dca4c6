"""Adam optimizer over one flat parameter vector."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["AdamState", "init_adam_state", "adam_step"]

_BETA1 = 0.9
_BETA2 = 0.999
_EPS = 1e-8


@dataclass
class AdamState:
    """Step count and moment vectors: rows 0 and 1 of ``moments`` are the
    first and second moments, row 2 is scratch."""

    moments: np.ndarray
    step: int = 0


def init_adam_state(n_params: int) -> AdamState:
    """Fresh state for a parameter vector of ``n_params`` entries."""
    return AdamState(np.zeros((3, n_params)))


def adam_step(state: AdamState, p: np.ndarray, g: np.ndarray, lr: float) -> None:
    """One Adam update with bias correction of the vector ``p`` given its
    gradient ``g``, in place; ``g`` serves as scratch and is overwritten."""
    if not len(p) == len(g) == state.moments.shape[1]:
        raise ValueError(
            f"need {state.moments.shape[1]} parameters and gradients, got {len(p)} and {len(g)}"
        )
    state.step += 1
    correct1 = 1.0 - _BETA1**state.step
    correct2 = 1.0 - _BETA2**state.step
    scale = lr * np.sqrt(correct2) / correct1
    m1, m2, tmp = state.moments
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
