"""Dense complex linear-algebra kernels used by the estimators.

Hermitian eigendecomposition, complex SVD and polynomial root finding, all in
double precision. Every routine is a pure function of its inputs and safe to
call concurrently.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "NumericalError",
    "hermitian_eig",
    "complex_svd",
    "polynomial_roots",
    "HERMITIAN_RTOL",
]

# Relative tolerance (against the largest entry magnitude) under which a
# matrix is accepted as Hermitian.
HERMITIAN_RTOL = 1e-10

# Trailing polynomial coefficients below this fraction of the largest one are
# treated as zero when determining the degree.
_COEFF_TRIM_RTOL = 1e-12


class NumericalError(RuntimeError):
    """An iterative numerical kernel failed to converge."""


def hermitian_eig(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian matrix with descending eigenvalues.

    Parameters
    ----------
    m : array_like
        Square matrix, Hermitian within ``HERMITIAN_RTOL`` relative to its
        largest entry magnitude.

    Returns
    -------
    eigenvalues, eigenvectors : numpy.ndarray
        Real eigenvalues in decreasing order, and the unit-norm eigenvectors
        as columns: ``eigenvectors[:, i]`` pairs with ``eigenvalues[i]``.

    Raises
    ------
    ValueError
        If the matrix is not square or not Hermitian within tolerance.
    NumericalError
        If the underlying iteration does not converge.
    """
    m = np.asarray(m, dtype=np.complex128)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] == 0:
        raise ValueError(f"expected a non-empty square matrix, got shape {m.shape}")
    scale = float(np.abs(m).max())
    if scale > 0.0 and float(np.abs(m - m.conj().T).max()) > HERMITIAN_RTOL * scale:
        raise ValueError("matrix is not Hermitian within tolerance")
    try:
        w, q = np.linalg.eigh(m)
    except np.linalg.LinAlgError as exc:
        n = m.shape[0]
        raise NumericalError(
            f"eigendecomposition did not converge for a {n}x{n} matrix"
        ) from exc
    # eigh sorts ascending; the workbench convention is descending.
    return w[::-1].copy(), q[:, ::-1].copy()


def complex_svd(m: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Thin SVD ``(U, s, Vh)`` of a complex matrix, ``M = U @ diag(s) @ Vh``
    with the singular values ``s`` descending.

    Raises
    ------
    ValueError
        If the matrix is empty.
    NumericalError
        If the iteration does not converge.
    """
    m = np.asarray(m, dtype=np.complex128)
    if m.ndim != 2 or m.size == 0:
        raise ValueError(f"expected a non-empty matrix, got shape {m.shape}")
    try:
        return np.linalg.svd(m, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(
            f"SVD did not converge for a {m.shape[0]}x{m.shape[1]} matrix"
        ) from exc


def polynomial_roots(coeffs: np.ndarray) -> np.ndarray:
    """All complex roots of a polynomial given by ascending-power coefficients.

    The roots are computed as the eigenvalues of the companion matrix of the
    monic-normalized polynomial. Trailing coefficients smaller than
    ``1e-12 * max|coeff|`` are trimmed before the degree is determined.

    Parameters
    ----------
    coeffs : array_like
        Coefficients ``c[0] + c[1] z + ... + c[d] z**d``.

    Returns
    -------
    numpy.ndarray
        ``degree`` roots (with multiplicity), sorted by real then imaginary
        part. A degree-0 polynomial yields an empty array.

    Raises
    ------
    ValueError
        For the zero polynomial (all coefficients exactly zero).
    """
    c = np.asarray(coeffs, dtype=np.complex128).ravel()
    if c.size == 0 or not np.any(c != 0):
        raise ValueError("the zero polynomial has no defined root set")
    threshold = _COEFF_TRIM_RTOL * float(np.abs(c).max())
    last = c.size - 1
    while last > 0 and abs(c[last]) <= threshold:
        last -= 1
    c = c[: last + 1]
    degree = c.size - 1
    if degree == 0:
        return np.empty(0, dtype=np.complex128)
    monic = c / c[-1]
    companion = np.zeros((degree, degree), dtype=np.complex128)
    companion[1:, :-1] = np.eye(degree - 1)
    companion[:, -1] = -monic[:-1]
    try:
        roots = np.linalg.eigvals(companion)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(
            f"companion-matrix eigenvalue iteration did not converge (degree {degree})"
        ) from exc
    return np.sort_complex(roots)
