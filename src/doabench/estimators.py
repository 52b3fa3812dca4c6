"""Covariance-based DoA estimators.

Grid MUSIC, Root-MUSIC (polynomial rooting) and the l2,1-SVD method
(row-sparse basis-pursuit denoising after SVD dimensionality reduction).
All estimators are pure functions; Monte-Carlo trials can run them
concurrently with per-trial inputs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .arraymodel import GridSpec, UlaGeometry, manifold
from .numerics import hermitian_eig, complex_svd, polynomial_roots

__all__ = [
    "EstimatorFailure",
    "BpdnConfig",
    "L21Result",
    "noise_subspace",
    "music_spectrum",
    "pick_peaks",
    "root_music",
    "dimensionality_reduce",
    "l21_svd",
]

# Floor applied to the MUSIC denominator so grid points lying exactly in the
# signal subspace yield a finite spectrum value.
_MUSIC_DENOM_FLOOR = 1e-12

# Singular values below this fraction of the largest count as zero when the
# numerical rank is determined.
_RANK_RTOL = 1e-10


class EstimatorFailure(RuntimeError):
    """An estimator could not produce the requested number of DoAs."""


@dataclass(frozen=True)
class BpdnConfig:
    """Solver configuration for the row-sparse denoising problem.

    ``eta`` bounds the Frobenius norm of the data residual. The
    alternating-direction iteration stops after ``max_iterations`` or when
    both its primal and its dual residual are within the relative ``tol``.
    """

    eta: float
    max_iterations: int = 2000
    tol: float = 1e-4

    def __post_init__(self):
        if not self.eta >= 0:
            raise ValueError(f"the noise bound eta must be a non-negative number, got {self.eta}")
        if self.max_iterations < 1:
            raise ValueError("need at least one iteration")
        if not self.tol > 0:
            raise ValueError("the convergence tolerance must be positive")


@dataclass(frozen=True)
class L21Result:
    """Solution of the row-sparse recovery problem.

    ``angles`` are the grid angles picked from ``row_power``; ``row_power[i]``
    is the squared row norm of the recovered source matrix at grid point i.
    ``converged`` is False when the iteration hit its cap; ``degenerate`` is
    True when the zero matrix already satisfies the residual bound.
    """

    angles: np.ndarray
    row_power: np.ndarray = field(repr=False)
    converged: bool = True
    degenerate: bool = False
    n_iter: int = 0
    objective: float = 0.0
    residual_norm: float = 0.0


def noise_subspace(r: np.ndarray, k: int) -> np.ndarray:
    """Orthonormal basis of the noise subspace: eigenvectors of the N-K
    smallest eigenvalues of the covariance ``r``.
    """
    r = np.asarray(r, dtype=np.complex128)
    n = r.shape[0]
    if not 1 <= k < n:
        raise ValueError(f"source count {k} must satisfy 1 <= k < {n}")
    _, eigenvectors = hermitian_eig(r)
    return eigenvectors[:, k:]


def music_spectrum(
    r: np.ndarray, k: int, grid: GridSpec, geom: UlaGeometry
) -> np.ndarray:
    """MUSIC pseudo-spectrum over the grid, one value per grid point.

    The value at grid point phi is ``1 / ||Qe^H a(phi)||^2`` where Qe spans
    the noise subspace; denominators are floored at 1e-12 to stay finite.
    """
    qe = noise_subspace(r, k)
    a = manifold(geom, grid.points)
    denom = np.sum(np.abs(qe.conj().T @ a) ** 2, axis=0)
    return 1.0 / np.maximum(denom, _MUSIC_DENOM_FLOOR)


def pick_peaks(values, grid: GridSpec, k: int) -> np.ndarray:
    """Grid angles of the K largest local maxima of a spectrum, given as one
    value per grid point.

    A point is a local maximum when it is >= both neighbours (boundary points
    compare against their single neighbour). Ties break toward the smaller
    angle. Candidates closer than half the grid resolution to an already
    selected angle are skipped. If fewer than K local maxima exist, the
    largest not-yet-selected values fill the remaining picks.
    """
    v = np.asarray(values, dtype=np.float64)
    if v.shape != (grid.n_points,):
        raise ValueError("spectrum length does not match the grid")
    if k < 1:
        raise ValueError("need at least one peak")
    angles = grid.points
    n = v.size
    if k > n:
        raise ValueError(f"cannot pick {k} peaks from {n} grid points")
    padded = np.concatenate(([-np.inf], v, [-np.inf]))
    is_max = (v >= padded[:-2]) & (v >= padded[2:])
    ranked = angles[np.lexsort((angles, -v, ~is_max))]
    min_sep = grid.resolution_deg / 2.0
    return np.sort(_pick_apart(ranked, k, lambda a, b: abs(a - b) < min_sep))


def _pick_apart(ranked, k: int, too_close) -> list:
    """The first K ranked candidates that are not ``too_close`` to an earlier
    pick; if fewer than K are, the best candidates not yet picked fill up."""
    picked = []
    for c in ranked:
        if not any(too_close(c, p) for p in picked):
            picked.append(c)
            if len(picked) == k:
                return picked
    for c in ranked:
        if c not in picked:
            picked.append(c)
            if len(picked) == k:
                break
    return picked


def _root_music_polynomial(c: np.ndarray) -> np.ndarray:
    """Ascending coefficients of z**(N-1) * sum_l C_l z**l with C_l the sum
    of the l-th diagonal of ``c``, l = -(N-1) .. N-1.
    """
    n = c.shape[0]
    return np.array([np.trace(c, offset=l) for l in range(-(n - 1), n)])


def root_music(r: np.ndarray, k: int, geom: UlaGeometry) -> np.ndarray:
    """Gridless DoA estimation by rooting the noise-subspace polynomial.

    Builds ``C = Qe Qe^H``, collects its diagonal sums into a degree-2(N-1)
    polynomial, keeps the roots inside the unit circle, selects the K closest
    to the circle, and maps each root's phase through the arcsine to an angle
    in degrees. Requires ``spacing_ratio <= 0.5`` so the arcsine is
    unambiguous.
    """
    n = geom.n_sensors
    if not 1 <= k < n:
        raise ValueError(f"source count {k} must satisfy 1 <= k < {n}")
    if geom.spacing_ratio > 0.5 + 1e-12:
        raise ValueError("spacing above half a wavelength makes the angle map ambiguous")
    qe = noise_subspace(r, k)
    c = qe @ qe.conj().T
    roots = polynomial_roots(_root_music_polynomial(c))
    # Roots at the origin carry no phase information (they appear when the
    # subspace function has no angular nulls at all); never select them.
    roots = roots[np.abs(roots) > 1e-12]
    mags = np.abs(roots)
    inside = roots[mags < 1.0]
    # The ideal root multiset has exactly N-1 strictly-inside roots (the other
    # N-1 are their reciprocal-conjugate partners). Fewer means some pairs
    # collapsed onto the circle; widen to a thin band so they stay candidates.
    if inside.size < n - 1:
        inside = roots[mags <= 1.0 + 1e-9]
    if inside.size < k:
        raise EstimatorFailure(
            f"only {inside.size} roots inside the unit circle, need {k}"
        )
    closeness = np.abs(1.0 - np.abs(inside))
    order = np.lexsort((np.angle(inside), -np.abs(inside), closeness))
    picked = _pick_apart(inside[order], k, _same_phase)
    phases = np.array([_refined_phase(z, roots) for z in picked])
    sines = phases / (2.0 * np.pi * geom.spacing_ratio)
    return np.sort(np.rad2deg(np.arcsin(np.clip(sines, -1.0, 1.0))))


def _same_phase(z: complex, p: complex) -> bool:
    d = abs(np.angle(z) - np.angle(p))
    return min(d, 2.0 * np.pi - d) < 1e-5


def _refined_phase(z: complex, roots: np.ndarray) -> float:
    """Phase of a selected root, averaged with its reciprocal-conjugate twin.

    The rooted polynomial's coefficients are exactly conjugate symmetric, so
    its root multiset pairs as (z, 1/conj(z)) with both members sharing one
    phase; averaging the numerically computed pair cancels the leading
    splitting error of near-circle double roots.
    """
    target = 1.0 / np.conj(z)
    others = roots[roots != z]
    if others.size == 0:
        return float(np.angle(z))
    twin = others[np.argmin(np.abs(others - target))]
    d = abs(np.angle(twin) - np.angle(z))
    if min(d, 2.0 * np.pi - d) > 1e-4:
        return float(np.angle(z))
    mean_dir = z / abs(z) + twin / abs(twin)
    if mean_dir == 0:
        return float(np.angle(z))
    return float(np.angle(mean_dir))


def dimensionality_reduce(y: np.ndarray) -> np.ndarray:
    """Project the N x T snapshot matrix ``y`` onto its principal directions.

    Returns ``U @ diag(s)`` restricted to the first R columns, with R the
    numerical rank of the data (singular values above 1e-10 of the largest).
    This equals ``Y V D_R^T`` for the SVD ``Y = U diag(s) V^H``.
    """
    u, s, _ = complex_svd(y)
    if s[0] == 0.0:
        return np.zeros((u.shape[0], 0), dtype=np.complex128)
    rank = int(np.sum(s > _RANK_RTOL * s[0]))
    return u[:, :rank] * s[:rank]


def _row_shrink(v: np.ndarray, threshold: float) -> np.ndarray:
    """Proximal step of the l2,1 norm: scale each row toward zero."""
    norms = np.sqrt(np.sum(np.abs(v) ** 2, axis=1))
    scale = np.maximum(0.0, 1.0 - threshold / np.maximum(norms, 1e-300))
    return v * scale[:, None]


def l21_svd(
    y: np.ndarray,
    grid: GridSpec,
    geom: UlaGeometry,
    cfg: BpdnConfig,
    k: int,
) -> L21Result:
    """Row-sparse DoA recovery: minimize the l2,1 norm of the source matrix
    subject to a Frobenius bound ``eta`` on the data residual.

    The N x T snapshot matrix ``y`` is first reduced with
    :func:`dimensionality_reduce`.
    The constrained problem is then solved with an alternating-direction
    scheme that splits into a row-shrinkage step and a projection onto the
    eta-ball around the reduced data. DoAs are the K largest peaks of the
    recovered per-row power; row norms are unchanged by the map back to the
    full snapshot space, so the reduced solution's row powers are reported
    directly.
    """
    y_raw = dimensionality_reduce(y)
    a = manifold(geom, grid.points)
    n_grid = grid.n_points
    r = y_raw.shape[1]
    data_norm = float(np.linalg.norm(y_raw))

    if data_norm <= cfg.eta:
        row_power = np.zeros(n_grid)
        return L21Result(
            angles=pick_peaks(row_power, grid, k),
            row_power=row_power,
            converged=True,
            degenerate=True,
            n_iter=0,
            objective=0.0,
            residual_norm=data_norm,
        )

    # The problem is positively homogeneous: scaling the data and eta by 1/s
    # scales the minimizer by 1/s. Solving at unit data norm keeps the
    # iteration well conditioned for any snapshot count or noise level; the
    # recovered matrix is scaled back afterwards.
    scale = data_norm
    y = y_raw / scale
    eta = cfg.eta / scale

    rho = 1.0
    gram_inv = np.linalg.inv(
        np.eye(n_grid, dtype=np.complex128) + a.conj().T @ a
    )
    x = np.zeros((n_grid, r), dtype=np.complex128)
    z1 = np.zeros_like(x)
    z2 = np.zeros((geom.n_sensors, r), dtype=np.complex128)
    u1 = np.zeros_like(z1)
    u2 = np.zeros_like(z2)
    ah = a.conj().T

    converged = False
    n_iter = 0
    for it in range(cfg.max_iterations):
        n_iter = it + 1
        x = gram_inv @ ((z1 - u1) + ah @ (z2 - u2))
        ax = a @ x
        z1_new = _row_shrink(x + u1, 1.0 / rho)
        v = ax + u2
        resid = v - y
        resid_norm = float(np.linalg.norm(resid))
        if resid_norm <= eta:
            z2_new = v
        else:
            z2_new = y + resid * (eta / resid_norm)
        u1 += x - z1_new
        u2 += ax - z2_new

        primal = np.sqrt(
            np.linalg.norm(x - z1_new) ** 2 + np.linalg.norm(ax - z2_new) ** 2
        )
        dual = rho * np.linalg.norm((z1_new - z1) + ah @ (z2_new - z2))
        z1, z2 = z1_new, z2_new
        eps_primal = 1e-12 + cfg.tol * max(
            np.sqrt(np.linalg.norm(x) ** 2 + np.linalg.norm(ax) ** 2),
            np.sqrt(np.linalg.norm(z1) ** 2 + np.linalg.norm(z2) ** 2),
        )
        # At the optimum u1 + A^H u2 vanishes (stationarity of the x-update),
        # so the dual scale uses the individual dual magnitudes.
        eps_dual = 1e-12 + cfg.tol * rho * (
            np.linalg.norm(u1) + np.linalg.norm(ah @ u2)
        )
        if primal <= eps_primal and dual <= eps_dual:
            converged = True
            break
        # Residual balancing: grow the penalty when the primal residual
        # dominates, shrink it when the dual one does. The scaled dual
        # variables absorb the change.
        if primal > 10.0 * dual:
            rho *= 2.0
            u1 /= 2.0
            u2 /= 2.0
        elif dual > 10.0 * primal:
            rho /= 2.0
            u1 *= 2.0
            u2 *= 2.0

    solution = z1 * scale
    row_power = np.sum(np.abs(solution) ** 2, axis=1)
    return L21Result(
        angles=pick_peaks(row_power, grid, k),
        row_power=row_power,
        converged=converged,
        degenerate=False,
        n_iter=n_iter,
        objective=float(np.sum(np.sqrt(row_power))),
        residual_norm=float(np.linalg.norm(y_raw - a @ solution)),
    )
