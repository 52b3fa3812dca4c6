"""Covariance-based DoA estimators.

Grid MUSIC, Root-MUSIC (polynomial rooting) and the l2,1-SVD method
(row-sparse basis-pursuit denoising after SVD dimensionality reduction).
All estimators are pure functions; Monte-Carlo trials can run them
concurrently with per-trial inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .arraymodel import GridSpec, UlaGeometry, check_source_count, manifold
from .numerics import hermitian_eig, complex_svd, polynomial_roots

__all__ = [
    "EstimatorFailure",
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

# The l2,1 iteration stops when both its primal and its dual residual are
# within this relative tolerance, or after the cap. The recovered support
# stabilizes at 1e-6 (checked against 1e-7) while 1e-4 still moves.
_L21_TOL = 1e-6
_L21_MAX_ITERATIONS = 30000


class EstimatorFailure(RuntimeError):
    """An estimator could not produce the requested number of DoAs."""


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
    residual_norm: float = 0.0


def noise_subspace(r: np.ndarray, k: int) -> np.ndarray:
    """Orthonormal basis of the noise subspace: eigenvectors of the N-K
    smallest eigenvalues of the covariance ``r``.
    """
    r = np.asarray(r, dtype=np.complex128)
    n = r.shape[0]
    check_source_count(k, n, least=1)
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
    angle. If fewer than K local maxima exist, the largest of the other values
    make up the rest.
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
    return np.sort(ranked[:k])


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


def _norm(v: np.ndarray) -> float:
    return math.sqrt(np.vdot(v, v).real)


def l21_svd(
    y: np.ndarray,
    grid: GridSpec,
    geom: UlaGeometry,
    eta: float,
    k: int,
) -> L21Result:
    """Row-sparse DoA recovery: minimize the l2,1 norm of the source matrix
    subject to the Frobenius bound ``eta >= 0`` on the data residual.

    The N x T snapshot matrix ``y`` is first reduced with
    :func:`dimensionality_reduce`.
    The constrained problem is then solved with an alternating-direction
    scheme that splits into a row-shrinkage step and a projection onto the
    eta-ball around the reduced data. DoAs are the K largest peaks of the
    recovered per-row power; row norms are unchanged by the map back to the
    full snapshot space, so the reduced solution's row powers are reported
    directly.
    """
    if not eta >= 0:
        raise ValueError(f"the noise bound eta must be a non-negative number, got {eta}")
    y_raw = dimensionality_reduce(y)
    a = manifold(geom, grid.points)
    n_grid = grid.n_points
    r = y_raw.shape[1]
    data_norm = float(np.linalg.norm(y_raw))

    if data_norm <= eta:
        row_power = np.zeros(n_grid)
        return L21Result(
            angles=pick_peaks(row_power, grid, k),
            row_power=row_power,
            converged=True,
            degenerate=True,
            n_iter=0,
            residual_norm=data_norm,
        )

    # The problem is positively homogeneous: scaling the data and eta by 1/s
    # scales the minimizer by 1/s. Solving at unit data norm keeps the
    # iteration well conditioned for any snapshot count or noise level; the
    # recovered matrix is scaled back afterwards.
    scale = data_norm
    y = y_raw / scale
    eta = eta / scale

    # x-update by Woodbury with the N x N S = (I + A A^H)^-1: for d = z - u
    # and b = d1 + A^H d2, x = b - A^H S A b and Ax = S A b. With the
    # N x (G+N) K = [SA, SAA^H] that is Ax = K d and x = d1 + A^H (d2 - Ax),
    # two products per iteration. The variables are stacked as z = (z1; z2),
    # u = (u1; u2) and w = (x; Ax). Every buffer and block view is made here,
    # once; z and z_new swap roles each iteration.
    n = geom.n_sensors
    ah = a.conj().T
    s = np.linalg.inv(np.eye(n, dtype=np.complex128) + a @ ah)
    sa = s @ a
    k_mat = np.concatenate([sa, sa @ ah], axis=1)
    z, z_new, u, w, v, d, step = (
        np.zeros((n_grid + n, r), dtype=np.complex128) for _ in range(7)
    )
    pair = [(buf, buf[:n_grid].view(np.float64), buf[n_grid:]) for buf in (z, z_new)]
    x, ax = w[:n_grid], w[n_grid:]
    d1, d2 = d[:n_grid], d[n_grid:]
    v1_re, v2 = v[:n_grid].view(np.float64), v[n_grid:]
    u1, u2 = u[:n_grid], u[n_grid:]
    step1, step2 = step[:n_grid], step[n_grid:]
    sensor_tmp = np.empty((n, r), dtype=np.complex128)
    grid_tmp = np.empty((n_grid, r), dtype=np.complex128)
    row_scale = np.empty((n_grid, 1))
    row_norm_sq = row_scale[:, 0]
    rho = 1.0

    converged = False
    n_iter = 0
    for it in range(_L21_MAX_ITERATIONS):
        n_iter = it + 1
        z_new, z_new1_re, z_new2 = pair[1]
        np.subtract(z, u, out=d)
        np.dot(k_mat, d, out=ax)
        np.subtract(d2, ax, out=sensor_tmp)
        np.dot(ah, sensor_tmp, out=x)
        x += d1
        np.add(w, u, out=v)
        # Proximal step of the l2,1 norm: scale each row of v1 by
        # max(0, 1 - t / ||row||) with t = 1/rho. max(||row||, t) makes that
        # factor exactly 0 where the norm is below t, with no clamp at 0.
        threshold = 1.0 / rho
        np.einsum("ij,ij->i", v1_re, v1_re, out=row_norm_sq)
        np.sqrt(row_scale, out=row_scale)
        np.maximum(row_scale, threshold, out=row_scale)
        np.divide(threshold, row_scale, out=row_scale)
        np.subtract(1.0, row_scale, out=row_scale)
        np.multiply(v1_re, row_scale, out=z_new1_re)
        np.subtract(v2, y, out=sensor_tmp)
        resid_norm = _norm(sensor_tmp)
        if resid_norm <= eta:
            z_new2[...] = v2
        else:
            np.multiply(sensor_tmp, eta / resid_norm, out=z_new2)
            z_new2 += y
        np.subtract(w, z_new, out=step)
        u += step
        primal = _norm(step)
        np.subtract(z_new, z, out=step)
        np.dot(ah, step2, out=grid_tmp)
        grid_tmp += step1
        dual = rho * _norm(grid_tmp)
        pair.reverse()
        z = z_new
        # At the optimum u1 + A^H u2 vanishes (stationarity of the x-update),
        # so the dual scale uses the individual dual magnitudes. Each scale is
        # computed only when the test before it passes.
        if primal <= 1e-12 + _L21_TOL * max(_norm(w), _norm(z)) and dual <= 1e-12 + (
            _L21_TOL * rho * (_norm(u1) + _norm(np.dot(ah, u2, out=grid_tmp)))
        ):
            converged = True
            break
        # Residual balancing: grow the penalty when the primal residual
        # dominates, shrink it when the dual one does. The scaled dual
        # variables absorb the change.
        if primal > 10.0 * dual:
            rho *= 2.0
            u /= 2.0
        elif dual > 10.0 * primal:
            rho /= 2.0
            u *= 2.0

    solution = z[:n_grid] * scale
    row_power = np.sum(np.abs(solution) ** 2, axis=1)
    return L21Result(
        angles=pick_peaks(row_power, grid, k),
        row_power=row_power,
        converged=converged,
        degenerate=False,
        n_iter=n_iter,
        residual_norm=float(np.linalg.norm(y_raw - a @ solution)),
    )
