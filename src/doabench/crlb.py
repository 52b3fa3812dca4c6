"""Cramer-Rao lower bound for DoA estimation under the unconditional
(stochastic-signal) snapshot model."""

from __future__ import annotations

import numpy as np

from .arraymodel import SourceScene, UlaGeometry, check_source_count, manifold
from .numerics import NumericalError

__all__ = ["crlb_unconditional"]


def crlb_unconditional(geom: UlaGeometry, scene: SourceScene, t_snapshots: int) -> np.ndarray:
    """Per-angle standard-deviation bound in degrees for unbiased DoA
    estimators under Gaussian-signal snapshots.

    Uses the closed-form stochastic-model bound

        CRB = sigma_e^2 / (2T) * { Re[ (D^H P D) o (Rs A^H Ry^-1 A Rs)^T ] }^-1

    where A is the manifold, D its angle derivative, P the projector onto the
    orthogonal complement of the column space of A, Rs the source covariance,
    Ry the snapshot covariance, and ``o`` the entrywise product. The returned
    vector is the square root of the CRB diagonal, converted to degrees.
    """
    k = scene.n_sources
    n = geom.n_sensors
    check_source_count(k, n, least=1)
    if not scene.noise_power > 0:
        raise ValueError("the stochastic bound requires positive noise power")
    if t_snapshots < k + 1:
        raise ValueError("need more snapshots than sources")

    a = manifold(geom, scene.doas_deg)
    # Angle derivative of each steering vector (the angle in radians).
    rate = 1j * 2.0 * np.pi * geom.spacing_ratio * np.cos(np.deg2rad(scene.doas_deg))
    d = rate * np.arange(n)[:, None] * a
    rs = np.diag(np.asarray(scene.source_powers, dtype=np.float64)).astype(np.complex128)
    ry = a @ rs @ a.conj().T + scene.noise_power * np.eye(n, dtype=np.complex128)

    try:
        gram_inv = np.linalg.inv(a.conj().T @ a)
        proj_perp = np.eye(n, dtype=np.complex128) - a @ gram_inv @ a.conj().T
        middle = rs @ a.conj().T @ np.linalg.solve(ry, a @ rs)
        fisher = np.real((d.conj().T @ proj_perp @ d) * middle.T)
        crb = scene.noise_power / (2.0 * t_snapshots) * np.linalg.inv(fisher)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(
            "singular Fisher information (angles too close or degenerate scene)"
        ) from exc

    variances = np.diag(crb)
    if np.any(variances <= 0):
        raise NumericalError("Fisher information is not positive definite")
    return np.sqrt(variances) * (180.0 / np.pi)
