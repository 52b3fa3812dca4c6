"""Metric and bound contracts, with the worked set-distance examples frozen
against independent direct computation."""

import numpy as np
import pytest

from doabench.arraymodel import SourceScene, UlaGeometry, true_covariance
from doabench.crlb import crlb_unconditional
from doabench.metrics import confusion, hausdorff, rmse
from doabench.numerics import NumericalError

SET_B = (-30.2, 20.15, 22.83)


def hausdorff_oracle(a, b):
    """Direct two-sided sup-inf evaluation, nested loops."""
    if not a and not b:
        return 0.0
    if not a or not b:
        return float("inf")
    d_ab = max(min(abs(x - y) for y in b) for x in a)
    d_ba = max(min(abs(x - y) for y in a) for x in b)
    return max(d_ab, d_ba)


class TestRmse:
    def test_zero_for_equal_sets(self):
        assert rmse([(1.0, 2.0)], [(1.0, 2.0)]) == 0.0

    def test_worked_example(self):
        value = rmse([(-30.0, 20.0, 23.0)], [SET_B])
        expected = np.sqrt((0.2**2 + 0.15**2 + 0.17**2) / 3.0)
        assert abs(value - expected) < 1e-9

    def test_direct_sum_oracle_on_perturbations(self):
        rng = np.random.default_rng(0)
        truths, estimates, total, count = [], [], 0.0, 0
        for _ in range(100):
            t = np.sort(rng.uniform(-50, 50, 3))
            while np.diff(t).min() < 2.0:
                t = np.sort(rng.uniform(-50, 50, 3))
            e = t + rng.uniform(-0.5, 0.5, 3)
            truths.append(t)
            estimates.append(e)
            total += float(np.sum((t - e) ** 2))
            count += 3
        assert rmse(truths, estimates) == pytest.approx(np.sqrt(total / count), rel=1e-12)

    def test_set_size_may_differ_between_trials(self):
        value = rmse([(1.0, 2.0), (3.0,)], [(2.0, 1.5), (5.0,)])
        assert value == pytest.approx(np.sqrt((0.5**2 + 2.0**2) / 3.0), rel=1e-15)

    def test_rejects_size_mismatch(self):
        with pytest.raises(ValueError):
            rmse([(1.0, 2.0)], [(1.0,)])
        with pytest.raises(ValueError):
            rmse([(1.0,)], [(1.0,), (2.0,)])


class TestHausdorff:
    @pytest.mark.parametrize(
        "a,expected",
        [
            ((-30.0, 20.0, 23.0), 0.2),
            ((-30.0, 21.0), 1.83),
            ((-30.0, 51.0), 30.85),
        ],
    )
    def test_worked_examples(self, a, expected):
        value = hausdorff(a, SET_B)
        assert abs(value - expected) < 1e-9
        assert value == pytest.approx(hausdorff_oracle(list(a), list(SET_B)), abs=1e-12)

    def test_symmetry_and_identity(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            a = rng.uniform(-60, 60, rng.integers(1, 4))
            b = rng.uniform(-60, 60, rng.integers(1, 4))
            assert hausdorff(a, b) == hausdorff(b, a)
            assert hausdorff(a, a) == 0.0
            assert (hausdorff(a, b) == 0.0) == (set(a) == set(b))

    def test_triangle_inequality(self):
        rng = np.random.default_rng(3)
        for _ in range(1000):
            a = rng.uniform(-60, 60, rng.integers(1, 4))
            b = rng.uniform(-60, 60, rng.integers(1, 4))
            c = rng.uniform(-60, 60, rng.integers(1, 4))
            assert hausdorff(a, c) <= hausdorff(a, b) + hausdorff(b, c) + 1e-12

    def test_empty_set_policy(self):
        assert hausdorff([], []) == 0.0
        assert hausdorff([1.0], []) == float("inf")
        assert hausdorff([], [1.0]) == float("inf")

    def test_equals_rmse_for_singletons(self):
        assert hausdorff([12.25], [13.0]) == pytest.approx(
            rmse([(12.25,)], [(13.0,)]), rel=1e-12
        )


class TestConfusion:
    def test_perfect_prediction_diagonal(self):
        m = confusion([1, 2, 3, 2], [1, 2, 3, 2], 3)
        assert m[1, 1] == 1 and m[2, 2] == 2 and m[3, 3] == 1
        assert m.sum() == 4 and np.all(m == np.diag(np.diag(m)))

    def test_false_positives_superdiagonal(self):
        m = confusion([1, 2], [2, 3], 3)
        assert m[1, 2] == 1 and m[2, 3] == 1

    def test_row_sums_and_overflow(self):
        true_k = [1] * 5 + [2] * 7
        pred_k = [1, 1, 0, 9, 1, 2, 2, 2, 5, 2, 2, 1]
        m = confusion(true_k, pred_k, 3)
        assert m[1].sum() == 5 and m[2].sum() == 7
        assert m[1, 3] == 1 and m[2, 3] == 1  # 9 and 5 clamp into the last bucket


class TestCrlb:
    GEOM = UlaGeometry(16, 0.5)
    SCENE = SourceScene((10.11, 13.3), (1.0, 1.0), 1.0)

    def test_snapshot_scaling(self):
        b1 = crlb_unconditional(self.GEOM, self.SCENE, 1000)
        b4 = crlb_unconditional(self.GEOM, self.SCENE, 4000)
        np.testing.assert_allclose(b4 / b1, 0.5, rtol=1e-6)

    def test_monotone_in_snr(self):
        values = []
        for snr in np.linspace(-20, 25, 10):
            scene = SourceScene((7.3,), (1.0,), 10 ** (-snr / 10))
            values.append(crlb_unconditional(UlaGeometry(8, 0.5), scene, 500)[0])
        assert np.all(np.diff(values) < 0)

    def test_matches_finite_difference_fisher(self):
        geom = UlaGeometry(8, 0.5)
        scene = SourceScene((7.3,), (1.0,), 1.0)
        t = 500
        closed = crlb_unconditional(geom, scene, t)[0]
        numerical = _fisher_oracle_std_deg(geom, scene, t)
        assert abs(closed - numerical) / numerical < 0.01

    @pytest.mark.parametrize("n", [8, 16])
    def test_bits_match_per_angle_derivative(self, n):
        geom = UlaGeometry(n, 0.5)
        scenes = [
            SourceScene((7.3,), (1.0,), 1.0),
            SourceScene((-20.5, 3.25), (2.0, 0.5), 0.1),
            SourceScene((-41.0, -12.7, 33.3), (1.0, 1.0, 3.0), 10.0),
        ]
        for scene in scenes:
            bound = crlb_unconditional(geom, scene, 300)
            assert bound.tobytes() == _per_angle_crlb(geom, scene, 300).tobytes()

    def test_rejects_coincident_angles(self):
        scene = SourceScene((10.0, 10.0 + 1e-9), (1.0, 1.0), 1.0)
        with pytest.raises((NumericalError, ValueError)):
            crlb_unconditional(self.GEOM, scene, 1000)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            crlb_unconditional(self.GEOM, SourceScene((1.0,), (1.0,), 0.0), 100)
        with pytest.raises(ValueError):
            crlb_unconditional(self.GEOM, SourceScene((1.0, 2.0), (1.0, 1.0), 1.0), 2)


def _per_angle_crlb(geom, scene, t):
    """The closed-form bound with the steering vectors and their angle
    derivatives built one angle at a time."""
    n = geom.n_sensors
    a_cols, d_cols = [], []
    for theta in scene.doas_deg:
        phase_step = 2.0 * np.pi * geom.spacing_ratio * np.sin(np.deg2rad(theta))
        a_col = np.exp(1j * phase_step * np.arange(n))
        a_cols.append(a_col)
        factor = 1j * 2.0 * np.pi * geom.spacing_ratio * np.cos(np.deg2rad(theta)) * np.arange(n)
        d_cols.append(factor * a_col)
    a, d = np.stack(a_cols, axis=1), np.stack(d_cols, axis=1)
    rs = np.diag(np.asarray(scene.source_powers, dtype=np.float64)).astype(np.complex128)
    ry = a @ rs @ a.conj().T + scene.noise_power * np.eye(n, dtype=np.complex128)
    proj_perp = np.eye(n, dtype=np.complex128) - a @ np.linalg.inv(a.conj().T @ a) @ a.conj().T
    middle = rs @ a.conj().T @ np.linalg.solve(ry, a @ rs)
    fisher = np.real((d.conj().T @ proj_perp @ d) * middle.T)
    crb = scene.noise_power / (2.0 * t) * np.linalg.inv(fisher)
    return np.sqrt(np.diag(crb)) * (180.0 / np.pi)


def _fisher_oracle_std_deg(geom, scene, t):
    """DoA standard-deviation bound from central second differences of the
    expected Gaussian snapshot log-likelihood over (angles, powers, noise)."""
    k = scene.n_sources
    eta0 = np.concatenate(
        [np.deg2rad(scene.doas_deg), scene.source_powers, [scene.noise_power]]
    )
    r_true = true_covariance(geom, scene)

    def loglik(eta):
        sc = SourceScene(
            tuple(np.rad2deg(eta[:k])), tuple(eta[k : 2 * k]), float(eta[2 * k])
        )
        r = true_covariance(geom, sc)
        _, logdet = np.linalg.slogdet(r)
        return -t * (logdet + np.trace(np.linalg.solve(r, r_true)).real)

    n = eta0.size
    h = 1e-5
    fim = np.zeros((n, n))
    f0 = loglik(eta0)
    for i in range(n):
        for j in range(i, n):
            if i == j:
                ep, em = eta0.copy(), eta0.copy()
                ep[i] += h
                em[i] -= h
                fim[i, i] = -(loglik(ep) - 2 * f0 + loglik(em)) / h**2
            else:
                vals = 0.0
                for si, sj in ((1, 1), (1, -1), (-1, 1), (-1, -1)):
                    e = eta0.copy()
                    e[i] += si * h
                    e[j] += sj * h
                    vals += si * sj * loglik(e)
                fim[i, j] = fim[j, i] = -vals / (4 * h**2)
    crb = np.linalg.inv(fim)
    return float(np.sqrt(crb[0, 0]) * 180.0 / np.pi)
