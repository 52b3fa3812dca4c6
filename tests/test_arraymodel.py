"""Signal-model contracts: steering structure, covariance identities,
simulation statistics, channel encodings and label grid points."""

import numpy as np
import pytest

from doabench.arraymodel import (
    GridSpec,
    SourceScene,
    UlaGeometry,
    build_input_channels,
    ensemble_covariance,
    manifold,
    sample_covariance,
    simulate_snapshots,
    snr_db,
    steering_vector,
    true_covariance,
)
from doabench.numerics import complex_svd, hermitian_eig
from doabench.profiles import PROFILES
from doabench.training import Dataset

GEOM4 = UlaGeometry(4, 0.5)
GEOM16 = UlaGeometry(16, 0.5)
GRID = GridSpec(60.0, 1.0)


def _per_angle_manifold(geom, thetas):
    """Steering vectors built one angle at a time: the reference for the
    vectorized formula."""
    columns = []
    for theta in thetas:
        phase_step = 2.0 * np.pi * geom.spacing_ratio * np.sin(np.deg2rad(theta))
        columns.append(np.exp(1j * phase_step * np.arange(geom.n_sensors)))
    return np.stack(columns, axis=1)


def _slice_and_add_snapshots(geom, scene, t_snapshots, seed):
    """Snapshots assembled from strided slices of the draws, as an earlier
    version did: the reference for reading the draws as complex numbers."""
    k, n = scene.n_sources, geom.n_sensors
    draws = np.random.default_rng(seed).standard_normal((t_snapshots, 2 * k + 2 * n))
    inv_sqrt2 = 1.0 / np.sqrt(2.0)
    amps = (draws[:, 0 : 2 * k : 2] + 1j * draws[:, 1 : 2 * k : 2]) * inv_sqrt2
    amps = amps * np.sqrt(np.asarray(scene.source_powers))
    noise = (draws[:, 2 * k :: 2] + 1j * draws[:, 2 * k + 1 :: 2]) * inv_sqrt2
    noise = noise * np.sqrt(scene.noise_power)
    y = noise.T.copy()
    if k:
        y += manifold(geom, scene.doas_deg) @ amps.T
    return y


class TestSteering:
    def test_broadside_is_all_ones(self):
        np.testing.assert_allclose(steering_vector(GEOM4, 0.0), np.ones(4), atol=1e-15)

    def test_thirty_degrees_quarter_turns(self):
        np.testing.assert_allclose(
            steering_vector(GEOM4, 30.0), [1.0, 1j, -1.0, -1j], atol=1e-12
        )

    def test_phase_increment(self):
        a = steering_vector(GEOM16, 10.11)
        expected_step = 2 * np.pi * 0.5 * np.sin(np.deg2rad(10.11))
        steps = np.angle(a[1:] / a[:-1])
        np.testing.assert_allclose(steps, expected_step, atol=1e-12)

    def test_unit_modulus(self):
        for theta in (-89.9, -45.3, 0.0, 17.77, 89.9):
            np.testing.assert_allclose(
                np.abs(steering_vector(GEOM16, theta)), 1.0, atol=1e-12
            )

    @pytest.mark.parametrize("theta", [90.0, -90.0, 120.0])
    def test_rejects_out_of_domain(self, theta):
        with pytest.raises(ValueError):
            steering_vector(GEOM4, theta)


class TestManifold:
    def test_single_angle_column(self):
        m = manifold(GEOM4, [12.5])
        np.testing.assert_array_equal(m[:, 0], steering_vector(GEOM4, 12.5))

    def test_full_rank_at_k_equals_n(self):
        angles = [-70.0, -40.0, -10.0, 35.0]
        _, s, _ = complex_svd(manifold(GEOM4, angles))
        assert np.sum(s > 1e-10 * s[0]) == 4

    def test_adjacent_pair(self):
        m = manifold(GEOM16, [-60.0, -59.0])
        assert m.shape == (16, 2)
        np.testing.assert_allclose(np.abs(m), 1.0, atol=1e-12)

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError):
            manifold(GEOM4, [10.0, 10.0])

    @pytest.mark.parametrize("profile", ["small", "paper"])
    def test_grid_manifold_bits(self, profile):
        geom, grid = PROFILES[profile].geom, PROFILES[profile].grid
        m = manifold(geom, grid.points)
        assert m.shape == (geom.n_sensors, grid.n_points) and m.flags.c_contiguous
        assert m.tobytes() == _per_angle_manifold(geom, grid.points).tobytes()


class TestTrueCovariance:
    def test_single_broadside_source(self):
        scene = SourceScene((0.0,), (1.0,), 0.0)
        np.testing.assert_allclose(true_covariance(GEOM4, scene), np.ones((4, 4)), atol=1e-15)

    def test_noise_only(self):
        scene = SourceScene((), (), 2.0)
        np.testing.assert_allclose(
            true_covariance(UlaGeometry(2, 0.5), scene), 2.0 * np.eye(2), atol=1e-15
        )

    def test_eigenvalue_split(self):
        scene = SourceScene((10.11, 13.3), (1.0, 1.0), 10.0)
        w, _ = hermitian_eig(true_covariance(GEOM16, scene))
        assert np.all(w[:2] > 10.0)
        np.testing.assert_allclose(w[2:], 10.0, rtol=1e-8)

    def test_trace_identity(self):
        scene = SourceScene((3.0, -7.5), (1.5, 0.5), 2.0)
        r = true_covariance(GEOM16, scene)
        np.testing.assert_allclose(np.trace(r).real, 16 * (1.5 + 0.5) + 16 * 2.0, rtol=1e-12)

    def test_signal_part_rank(self):
        scene = SourceScene((-12.0, 4.0, 41.0), (1.0, 2.0, 0.5), 3.0)
        r = true_covariance(GEOM16, scene) - 3.0 * np.eye(16)
        _, s, _ = complex_svd(r)
        assert np.sum(s > 1e-8 * s[0]) == 3

    def test_rejects_too_many_sources(self):
        angles = tuple(float(a) for a in np.linspace(-50, 50, 4))
        with pytest.raises(ValueError):
            true_covariance(GEOM4, SourceScene(angles, (1.0,) * 4, 1.0))

    def test_stack_of_scenes(self):
        # Each covariance of a stack has the bits of B B^H + noise I with B
        # the per-angle steering vectors times sqrt(powers), one scene at a time.
        rng = np.random.default_rng(11)
        cases = [(
            np.array([[-40.3, 7.25], [12.0, 12.5], [0.0, 59.9]]),
            np.array([[1.0, 2.5], [0.3, 1.0], [4.0, 0.1]]),
            np.array([0.0, 1.5, 10.0]),
        )]
        for shape in [(6, 1), (4, 3), (2, 3, 5)]:
            cases.append((rng.uniform(-89.0, 89.0, shape), rng.uniform(0.1, 4.0, shape),
                          rng.uniform(0.0, 10.0, shape[:-1])))
        for doas, powers, noise in cases:
            stack = ensemble_covariance(GEOM16, doas, powers, noise)
            assert stack.shape == noise.shape + (16, 16)
            for i in np.ndindex(noise.shape):
                b = _per_angle_manifold(GEOM16, doas[i]) * np.sqrt(powers[i])
                expected = b @ b.conj().T + noise[i] * np.eye(16, dtype=complex)
                assert stack[i].tobytes() == expected.tobytes()
                scene = SourceScene(doas[i], powers[i], noise[i])
                assert stack[i].tobytes() == true_covariance(GEOM16, scene).tobytes()


class TestSimulation:
    def test_noiseless_single_source_spans_steering(self):
        scene = SourceScene((23.0,), (1.0,), 0.0)
        y = simulate_snapshots(GEOM4, scene, 1, seed=0)[:, 0]
        a = steering_vector(GEOM4, 23.0)
        residual = y - a * (a.conj() @ y) / 4.0
        assert np.linalg.norm(residual) < 1e-12 * np.linalg.norm(y)

    def test_seeded_determinism(self):
        scene = SourceScene((5.0, -8.0), (1.0, 1.0), 2.0)
        y1 = simulate_snapshots(GEOM16, scene, 64, seed=42)
        y2 = simulate_snapshots(GEOM16, scene, 64, seed=42)
        assert y1.shape == (16, 64) and y1.dtype == np.complex128
        assert np.array_equal(y1, y2)

    def test_large_sample_convergence(self):
        scene = SourceScene((10.0, -22.0), (1.0, 1.0), 10.0)
        r_hat = sample_covariance(simulate_snapshots(GEOM16, scene, 100_000, seed=7))
        r = true_covariance(GEOM16, scene)
        assert np.linalg.norm(r_hat - r) / np.linalg.norm(r) < 0.05

    def test_unbiasedness_three_standard_errors(self):
        geom = UlaGeometry(8, 0.5)
        scene = SourceScene((12.0, -31.0), (1.0, 1.0), 1.0)
        r = true_covariance(geom, scene)
        estimates = np.array(
            [
                sample_covariance(simulate_snapshots(geom, scene, 100, seed=s))
                for s in range(200)
            ]
        )
        mean = estimates.mean(axis=0)
        se = estimates.std(axis=0, ddof=1) / np.sqrt(200)
        dev = np.abs(mean - r)
        assert np.all(dev <= 3.0 * np.maximum(np.abs(se), 1e-12))

    def test_monotone_consistency_in_snapshots(self):
        geom = UlaGeometry(8, 0.5)
        scene = SourceScene((-9.58, 13.3), (1.0, 1.0), 1.0)
        r = true_covariance(geom, scene)
        means = []
        for t in (100, 1000, 10000):
            errs = [
                np.linalg.norm(
                    sample_covariance(simulate_snapshots(geom, scene, t, seed=s)) - r
                )
                for s in range(50)
            ]
            means.append(np.mean(errs))
        assert means[0] > means[1] > means[2]

    def test_rejects_zero_snapshots(self):
        with pytest.raises(ValueError):
            simulate_snapshots(GEOM4, SourceScene((0.0,), (1.0,), 1.0), 0, seed=0)

    @pytest.mark.parametrize("profile", ["small", "paper"])
    @pytest.mark.parametrize("k", [0, 1, 2, 3])
    def test_same_bytes_as_slice_and_add(self, profile, k):
        geom = PROFILES[profile].geom
        doas, powers = (7.8, -2.6, 2.6)[:k], (0.7, 1.25, 2.0)[:k]
        for noise in (0.0, 1.0, 10.0, 0.0316):
            scene = SourceScene(doas, powers, noise)
            for t in (1, 3, 200, 1000):
                for seed in (0, 3, 2**40 + 7):
                    y = simulate_snapshots(geom, scene, t, seed)
                    assert y.flags.c_contiguous
                    ref = _slice_and_add_snapshots(geom, scene, t, seed)
                    assert y.shape == ref.shape and y.tobytes() == ref.tobytes()


class TestSampleCovariance:
    def test_single_basis_snapshot(self):
        data = np.zeros((4, 1), dtype=complex)
        data[0, 0] = 1.0
        r = sample_covariance(data)
        expected = np.zeros((4, 4))
        expected[0, 0] = 1.0
        np.testing.assert_array_equal(r, expected)

    def test_identical_columns(self):
        y = np.array([1.0 + 1j, -2.0, 0.5j, 3.0])
        data = np.tile(y[:, None], (1, 10))
        np.testing.assert_allclose(
            sample_covariance(data), np.outer(y, y.conj()), rtol=1e-14
        )

    def test_positive_semidefinite(self):
        scene = SourceScene((1.0, 2.5), (1.0, 1.0), 1.0)
        w, _ = hermitian_eig(sample_covariance(simulate_snapshots(GEOM16, scene, 2000, seed=3)))
        assert w.min() >= -1e-10

    @pytest.mark.parametrize("shape", [(4,), (4, 0), (2, 3, 4)])
    def test_rejects_non_matrix(self, shape):
        with pytest.raises(ValueError, match="N x T"):
            sample_covariance(np.ones(shape, dtype=complex))


class TestSnr:
    def test_equal_powers(self):
        assert snr_db(SourceScene((0.0, 10.0), (1.0, 1.0), 1.0)) == 0.0

    def test_perturbed_powers_low_noise(self):
        value = snr_db(SourceScene((0.0, 10.0), (0.7, 1.25), 1.0))
        assert abs(value - (-1.549)) < 1e-3

    def test_perturbed_powers_high_noise(self):
        value = snr_db(SourceScene((0.0, 10.0), (0.7, 1.25), 10.0))
        assert abs(value - (-11.549)) < 1e-3

    def test_rejects_zero_noise(self):
        with pytest.raises(ValueError):
            snr_db(SourceScene((0.0,), (1.0,), 0.0))

    def test_rejects_empty_scene(self):
        with pytest.raises(ValueError):
            snr_db(SourceScene((), (), 1.0))


class TestInputChannels:
    def test_stack_of_matrices(self):
        r = np.array([np.eye(3), [[1, 2j, -1], [-2j, 4, 0], [-1, 0, 9]]], dtype=complex)
        x = build_input_channels(r)
        assert x.shape == (2, 3, 3, 3)
        for xi, ri in zip(x, r):
            np.testing.assert_array_equal(xi, build_input_channels(ri))
        with pytest.raises(ValueError):
            build_input_channels(np.ones((2, 3)))

    def test_identity_matrix(self):
        x = build_input_channels(np.eye(3))
        np.testing.assert_array_equal(x[:, :, 0], np.eye(3))
        np.testing.assert_array_equal(x[:, :, 1], np.zeros((3, 3)))
        np.testing.assert_array_equal(x[:, :, 2], np.zeros((3, 3)))

    def test_pure_imaginary_entry(self):
        r = np.eye(2, dtype=complex)
        r[0, 1] = 1j
        r[1, 0] = -1j
        x = build_input_channels(r)
        assert x[0, 1, 2] == pytest.approx(np.pi / 2)
        assert x[1, 0, 2] == pytest.approx(-np.pi / 2)

    def test_channel_symmetries(self):
        scene = SourceScene((10.0, -5.0), (1.0, 2.0), 1.5)
        x = build_input_channels(true_covariance(GEOM16, scene))
        np.testing.assert_array_equal(x[:, :, 0], x[:, :, 0].T)
        np.testing.assert_array_equal(x[:, :, 1], -x[:, :, 1].T)
        assert np.all(x[:, :, 2] > -np.pi) and np.all(x[:, :, 2] <= np.pi)
        np.testing.assert_array_equal(np.diag(x[:, :, 1]), np.zeros(16))
        np.testing.assert_array_equal(np.diag(x[:, :, 2]), np.zeros(16))

    def test_phase_range_endpoint(self):
        r = np.array([[1.0, -1.0], [-1.0, 1.0]], dtype=complex)
        x = build_input_channels(r)
        assert x[0, 1, 2] == pytest.approx(np.pi)


class TestLabels:
    """A label marks grid points: angles reach it through ``GridSpec.index_of``
    and a training example's support of grid indices."""

    def test_rejects_off_grid(self):
        with pytest.raises(ValueError, match="does not coincide with a grid point"):
            GRID.index_of(0.5)

    def test_rejects_duplicate_grid_points(self):
        support = (GRID.index_of(3.0), GRID.index_of(3.0 + 1e-12))
        assert support == (63, 63)
        example = Dataset(GRID, UlaGeometry(8, 0.5), ((0.0, support),))
        with pytest.raises(ValueError, match="same grid point"):
            example.batch([0])


class TestGridSpec:
    def test_points_structure(self):
        grid = GridSpec(60.0, 1.0)
        pts = grid.points
        assert pts.size == 121
        np.testing.assert_allclose(np.diff(pts), 1.0)
        assert pts[0] == -60.0 and pts[-1] == 60.0

    def test_rejects_non_integer_ratio(self):
        with pytest.raises(ValueError):
            GridSpec(10.0, 3.0)

    @pytest.mark.parametrize("profile", ["small", "paper"])
    def test_points_made_once(self, profile):
        grid = PROFILES[profile].grid
        expected = -grid.phi_max_deg + np.arange(grid.n_points) * grid.resolution_deg
        assert grid.points is grid.points
        assert grid.points.tobytes() == expected.tobytes()
        fresh = GridSpec(grid.phi_max_deg, grid.resolution_deg)
        assert fresh.points is not grid.points and fresh.points.tobytes() == expected.tobytes()

    def test_points_are_read_only(self):
        # the profiles' grids are shared, so one caller must not move another's points
        grid = PROFILES["small"].grid
        with pytest.raises(ValueError):
            grid.points[0] = 1.0
        assert grid.points[0] == -grid.phi_max_deg



class TestSnapshotFile:
    def test_round_trip(self, tmp_path):
        scene = SourceScene((5.0, -12.0), (1.0, 2.0), 0.5)
        y = simulate_snapshots(UlaGeometry(6, 0.5), scene, 37, seed=9)
        path = tmp_path / "block.npy"
        np.save(path, y)
        loaded = np.load(path)
        assert loaded.shape == (6, 37) and loaded.dtype == np.complex128
        assert np.array_equal(y, loaded)
