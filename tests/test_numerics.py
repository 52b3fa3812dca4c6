"""Linear-algebra kernel contracts: reconstruction residuals, orthonormality,
root residuals, and the known closed-form cases."""

import numpy as np
import pytest

from doabench.arraymodel import SourceScene, UlaGeometry, true_covariance
from doabench.estimators import _root_music_polynomial, noise_subspace
from doabench.numerics import complex_svd, hermitian_eig, polynomial_roots


def random_hermitian(n, seed):
    rng = np.random.default_rng(seed)
    m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return (m + m.conj().T) / 2


class TestHermitianEig:
    def test_identity(self):
        w, _ = hermitian_eig(np.eye(4))
        np.testing.assert_allclose(w, np.ones(4), atol=1e-14)

    def test_all_ones_matrix(self):
        w, _ = hermitian_eig(np.ones((4, 4)))
        np.testing.assert_allclose(w, [4.0, 0.0, 0.0, 0.0], atol=1e-14)

    def test_reconstruction_residual(self):
        m = random_hermitian(8, seed=1)
        w, q = hermitian_eig(m)
        rebuilt = q @ np.diag(w) @ q.conj().T
        rel = np.linalg.norm(m - rebuilt) / np.linalg.norm(m)
        assert rel < 1e-10

    def test_orthonormal_columns(self):
        _, q = hermitian_eig(random_hermitian(8, seed=2))
        np.testing.assert_allclose(q.conj().T @ q, np.eye(8), atol=1e-8)

    def test_eigenvalues_descending_and_real(self):
        w, _ = hermitian_eig(random_hermitian(10, seed=3))
        assert w.dtype == np.float64
        assert np.all(np.diff(w) <= 0)

    def test_noise_floor_eigenvalues(self):
        # Ensemble covariance with K sources: the N-K trailing eigenvalues
        # all equal the noise power.
        geom = UlaGeometry(16, 0.5)
        scene = SourceScene((10.11, 13.3), (1.0, 1.0), 7.0)
        w, _ = hermitian_eig(true_covariance(geom, scene))
        np.testing.assert_allclose(w[2:], 7.0, rtol=1e-8)
        assert np.all(w[:2] > 7.0)

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            hermitian_eig(np.ones((3, 4)))

    def test_rejects_non_hermitian(self):
        m = np.array([[1.0, 2.0], [0.0, 1.0]])
        with pytest.raises(ValueError):
            hermitian_eig(m)


class TestComplexSvd:
    def test_diagonal(self):
        _, s, _ = complex_svd(np.diag([3.0, 2.0, 1.0]))
        np.testing.assert_allclose(s, [3.0, 2.0, 1.0], atol=1e-14)

    def test_rank_one_outer_product(self):
        rng = np.random.default_rng(4)
        a = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        b = rng.standard_normal(9) + 1j * rng.standard_normal(9)
        _, s, _ = complex_svd(np.outer(a, b.conj()))
        assert np.sum(s > 1e-10 * s[0]) == 1
        np.testing.assert_allclose(s[0], np.linalg.norm(a) * np.linalg.norm(b), rtol=1e-12)

    def test_reconstruction_residual(self):
        rng = np.random.default_rng(5)
        m = rng.standard_normal((16, 200)) + 1j * rng.standard_normal((16, 200))
        u, s, vh = complex_svd(m)
        rebuilt = u @ np.diag(s) @ vh
        assert np.linalg.norm(m - rebuilt) / np.linalg.norm(m) < 1e-10
        np.testing.assert_allclose(u.conj().T @ u, np.eye(16), atol=1e-8)
        np.testing.assert_allclose(vh @ vh.conj().T, np.eye(16), atol=1e-8)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            complex_svd(np.zeros((0, 3)))


def poly_from_roots(roots):
    """Independent construction: iterated convolution of the linear factors."""
    coeffs = np.array([1.0 + 0j])
    for r in roots:
        coeffs = np.convolve(coeffs, np.array([-r, 1.0]))
    return coeffs


class TestPolynomialRoots:
    def test_difference_of_squares(self):
        roots = polynomial_roots([-1.0, 0.0, 1.0])
        np.testing.assert_allclose(sorted(roots.real), [-1.0, 1.0], atol=1e-12)
        np.testing.assert_allclose(roots.imag, 0.0, atol=1e-12)

    def test_double_root(self):
        roots = polynomial_roots([1.0, -2.0, 1.0])
        np.testing.assert_allclose(roots, [1.0, 1.0], atol=1e-6)

    def test_degree_30_known_roots(self):
        rng = np.random.default_rng(6)
        while True:
            true_roots = rng.uniform(0.4, 1.3, 30) * np.exp(
                2j * np.pi * rng.random(30)
            )
            pairwise = np.abs(true_roots[:, None] - true_roots[None, :])
            if pairwise[~np.eye(30, dtype=bool)].min() > 0.05:
                break
        roots = polynomial_roots(poly_from_roots(true_roots))
        assert roots.size == 30
        # nearest-match pairing must be a bijection with small distances
        used = set()
        for r in roots:
            j = int(np.argmin(np.abs(true_roots - r)))
            assert j not in used
            used.add(j)
            assert abs(true_roots[j] - r) < 1e-6

    def test_residual_bound(self):
        rng = np.random.default_rng(7)
        coeffs = rng.standard_normal(21) + 1j * rng.standard_normal(21)
        roots = polynomial_roots(coeffs)
        scale = np.abs(coeffs).max()
        for z in roots:
            value = np.polyval(coeffs[::-1], z)
            assert abs(value) <= 1e-6 * scale * max(1.0, abs(z)) ** 20

    def test_trailing_near_zero_trimmed(self):
        roots = polynomial_roots([-1.0, 0.0, 1.0, 1e-30])
        assert roots.size == 2
        np.testing.assert_allclose(sorted(roots.real), [-1.0, 1.0], atol=1e-10)

    def test_zero_polynomial_rejected(self):
        with pytest.raises(ValueError):
            polynomial_roots([0.0, 0.0])

    def test_degree_zero_empty(self):
        assert polynomial_roots([5.0]).size == 0

    def test_subspace_polynomial_reciprocal_closure(self):
        # Rooting the noise-subspace diagonal sums of a true covariance:
        # the multiset is closed under z -> 1/conj(z).
        geom = UlaGeometry(8, 0.5)
        scene = SourceScene((-20.0, 5.5, 33.0), (1.0, 1.0, 1.0), 2.0)
        qe = noise_subspace(true_covariance(geom, scene), 3)
        roots = polynomial_roots(_root_music_polynomial(qe @ qe.conj().T))
        for z in roots:
            partner = 1.0 / np.conj(z)
            assert np.abs(roots - partner).min() < 1e-6
