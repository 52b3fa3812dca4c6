"""Estimator contracts: subspace structure, exactness on true covariances,
peak-picking policy and the row-sparse solver."""

import dataclasses

import numpy as np
import pytest

from doabench.arraymodel import (
    GridSpec,
    SourceScene,
    UlaGeometry,
    simulate_snapshots,
    sample_covariance,
    steering_vector,
    true_covariance,
)
from doabench.estimators import (
    BpdnConfig,
    EstimatorFailure,
    MusicSpectrum,
    dimensionality_reduce,
    l21_svd,
    music_spectrum,
    noise_subspace,
    pick_peaks,
    root_music,
)
from doabench.estimators import _pick_apart

GEOM16 = UlaGeometry(16, 0.5)
GRID = GridSpec(60.0, 1.0)


class TestNoiseSubspace:
    def test_orthogonal_to_signal(self):
        geom = UlaGeometry(4, 0.5)
        r = true_covariance(geom, SourceScene((0.0,), (1.0,), 1.0))
        qe = noise_subspace(r, 1)
        assert qe.shape == (4, 3)
        assert np.abs(qe.conj().T @ steering_vector(geom, 0.0)).max() < 1e-8

    def test_degenerate_spectrum_projector(self):
        qe = noise_subspace(np.eye(4), 1)
        proj = qe @ qe.conj().T
        np.testing.assert_allclose(proj @ proj, proj, atol=1e-8)
        assert np.trace(proj).real == pytest.approx(3.0)

    def test_noisy_projector_idempotent(self):
        scene = SourceScene((3.3, -11.0), (1.0, 1.0), 5.0)
        block = simulate_snapshots(GEOM16, scene, 500, seed=21)
        qe = noise_subspace(sample_covariance(block), 2)
        proj = qe @ qe.conj().T
        np.testing.assert_allclose(proj @ proj, proj, atol=1e-8)

    @pytest.mark.parametrize("k", [0, 16, 20])
    def test_rejects_bad_source_count(self, k):
        with pytest.raises(ValueError):
            noise_subspace(np.eye(16), k)


class TestMusicSpectrum:
    def test_on_grid_peaks(self):
        scene = SourceScene((-30.0, 20.0), (1.0, 1.0), 1.0)
        spec = music_spectrum(true_covariance(GEOM16, scene), 2, GRID, GEOM16)
        top_two = set(np.argsort(spec.values)[-2:])
        assert top_two == {GRID.index_of(-30.0), GRID.index_of(20.0)}

    def test_noiseless_peak_dominance(self):
        scene = SourceScene((0.0,), (1.0,), 0.0)
        spec = music_spectrum(true_covariance(GEOM16, scene), 1, GRID, GEOM16)
        at_source = spec.values[GRID.index_of(0.0)]
        others = np.delete(spec.values, GRID.index_of(0.0))
        assert at_source >= 1e3 * others.max()

    def test_length_matches_grid(self):
        scene = SourceScene((5.0,), (1.0,), 1.0)
        spec = music_spectrum(true_covariance(GEOM16, scene), 1, GRID, GEOM16)
        assert spec.values.shape == (121,)
        assert np.all(spec.values > 0) and np.all(np.isfinite(spec.values))

    def test_scale_invariant_peaks(self):
        scene = SourceScene((-14.0, 7.0), (1.0, 1.0), 2.0)
        block = simulate_snapshots(GEOM16, scene, 300, seed=5)
        r = sample_covariance(block)
        picks = pick_peaks(music_spectrum(r, 2, GRID, GEOM16), 2)
        picks_scaled = pick_peaks(music_spectrum(17.5 * r, 2, GRID, GEOM16), 2)
        np.testing.assert_array_equal(picks, picks_scaled)


class TestPickPeaks:
    def test_two_isolated_spikes(self):
        values = np.ones(121)
        values[GRID.index_of(-10.0)] = 50.0
        values[GRID.index_of(33.0)] = 40.0
        np.testing.assert_allclose(pick_peaks(MusicSpectrum(GRID, values), 2), [-10.0, 33.0])

    def test_monotone_spectrum_boundary_max(self):
        values = np.linspace(0.0, 1.0, 121)
        np.testing.assert_allclose(pick_peaks(MusicSpectrum(GRID, values), 1), [60.0])

    def test_plateau_tie_breaks_to_smaller_angle(self):
        values = np.zeros(121)
        values[40:45] = 7.0
        picked = pick_peaks(MusicSpectrum(GRID, values), 1)
        np.testing.assert_allclose(picked, [GRID.points[40]])

    def test_fills_when_not_enough_local_maxima(self):
        values = np.linspace(1.0, 0.0, 121)  # single local max at the left edge
        picked = pick_peaks(MusicSpectrum(GRID, values), 2)
        np.testing.assert_allclose(picked, GRID.points[:2])

    def test_rejects_impossible_counts(self):
        with pytest.raises(ValueError):
            pick_peaks(MusicSpectrum(GRID, np.ones(121)), 0)
        with pytest.raises(ValueError):
            pick_peaks(MusicSpectrum(GRID, np.ones(121)), 122)

    def test_matches_two_pass_picker_on_plateaus_and_ties(self):
        rng = np.random.default_rng(12)
        grids = [GRID, GridSpec(30.0, 1.0), GridSpec(10.0, 0.5)]
        for trial in range(1000):
            grid = grids[trial % len(grids)]
            values = rng.integers(0, rng.integers(1, 6), grid.n_points).astype(float)
            k = int(rng.integers(1, 5))
            spectrum = MusicSpectrum(grid, values)
            assert pick_peaks(spectrum, k).tobytes() == _two_pass_pick_peaks(spectrum, k).tobytes()

    def test_repeated_candidates_are_picked_once(self):
        # An exactly repeated candidate (such as a double root) is skipped
        # by the fill step too, because each fill pick counts at once.
        picked = _pick_apart([3.0, 3.0, 1.0, 2.0, 2.0], 4, lambda a, b: abs(a - b) < 1.5)
        assert picked == [3.0, 1.0, 2.0]


def _two_pass_pick_peaks(spectrum, k):
    """Peak picking as two ranked passes (local maxima, then the rest) over
    grid indices: the reference for ``pick_peaks``."""
    v = spectrum.values
    angles = spectrum.grid.points
    n = v.size
    left_ok = np.empty(n, dtype=bool)
    right_ok = np.empty(n, dtype=bool)
    left_ok[0] = True
    left_ok[1:] = v[1:] >= v[:-1]
    right_ok[-1] = True
    right_ok[:-1] = v[:-1] >= v[1:]
    is_max = left_ok & right_ok

    def ranked(indices):
        idx = np.asarray(indices)
        return idx[np.lexsort((angles[idx], -v[idx]))]

    candidates = list(ranked(np.nonzero(is_max)[0]))
    candidates += list(ranked(np.nonzero(~is_max)[0]))
    min_sep = spectrum.grid.resolution_deg / 2.0
    picked = []
    for i in candidates:
        if any(abs(angles[i] - angles[j]) < min_sep for j in picked):
            continue
        picked.append(i)
        if len(picked) == k:
            break
    if len(picked) < k:
        for i in candidates:
            if i not in picked:
                picked.append(i)
                if len(picked) == k:
                    break
    return np.sort(angles[picked])


class TestRootMusic:
    @pytest.mark.parametrize("noise", [0.5, 10.0, 1000.0])
    def test_exact_on_true_covariance(self, noise):
        scene = SourceScene((10.11, 13.3), (1.0, 1.0), noise)
        est = root_music(true_covariance(GEOM16, scene), 2, GEOM16)
        np.testing.assert_allclose(est, [10.11, 13.3], atol=1e-6)

    def test_scale_invariant(self):
        scene = SourceScene((-40.0, 2.0, 17.0), (1.0, 2.0, 0.5), 3.0)
        block = simulate_snapshots(GEOM16, scene, 400, seed=8)
        r = sample_covariance(block)
        np.testing.assert_allclose(
            root_music(r, 3, GEOM16), root_music(8.0 * r, 3, GEOM16), atol=1e-9
        )

    def test_rejects_wide_spacing(self):
        geom = UlaGeometry(8, 0.7)
        with pytest.raises(ValueError):
            root_music(np.eye(8), 2, geom)

    def test_rejects_bad_source_count(self):
        with pytest.raises(ValueError):
            root_music(np.eye(16), 16, GEOM16)

    def test_failure_when_no_usable_roots(self):
        # Diagonal covariance: the subspace polynomial has no roots at all.
        with pytest.raises((EstimatorFailure, ValueError)):
            root_music(np.diag(np.arange(1.0, 17.0)), 2, GEOM16)


class TestDimensionalityReduce:
    def test_orthogonal_columns_full_rank(self):
        geom = UlaGeometry(4, 0.5)
        data = np.eye(4, dtype=complex) * 2.0
        y = dimensionality_reduce(_block(geom, data))
        assert y.shape == (4, 4)

    def test_noiseless_two_source_rank(self):
        scene = SourceScene((-20.0, 31.0), (1.0, 1.0), 0.0)
        block = simulate_snapshots(GEOM16, scene, 100, seed=11)
        y = dimensionality_reduce(block)
        assert y.shape == (16, 2)

    def test_frobenius_preserved_at_full_rank(self):
        scene = SourceScene((-20.0, 31.0), (1.0, 1.0), 1.0)
        block = simulate_snapshots(GEOM16, scene, 64, seed=12)
        y = dimensionality_reduce(block)
        np.testing.assert_allclose(
            np.linalg.norm(y), np.linalg.norm(block.data), rtol=1e-8
        )


def _block(geom, data):
    from doabench.arraymodel import SnapshotBlock

    return SnapshotBlock(geom, data)


class TestL21Svd:
    def test_exact_support_noiseless(self):
        scene = SourceScene((7.0,), (1.0,), 0.0)
        block = simulate_snapshots(GEOM16, scene, 50, seed=3)
        res = l21_svd(block, GRID, GEOM16, BpdnConfig(eta=0.0, max_iterations=4000), 1)
        idx = GRID.index_of(7.0)
        assert np.argmax(res.row_power) == idx
        others = np.delete(res.row_power, idx)
        assert others.max() <= 1e-4 * res.row_power[idx]
        np.testing.assert_allclose(res.angles, [7.0])

    def test_feasible_at_convergence(self):
        scene = SourceScene((-10.0, 15.0), (1.0, 1.0), 1.0)
        block = simulate_snapshots(GEOM16, scene, 200, seed=4)
        eta = 40.0
        res = l21_svd(block, GRID, GEOM16, BpdnConfig(eta=eta, max_iterations=20000), 2)
        assert res.converged
        assert res.residual_norm <= eta * (1.0 + 1e-3)

    def test_objective_window_monotone(self):
        # The iterate wobbles at the convergence-tolerance scale, so the
        # window comparison gets slack proportional to that tolerance.
        scene = SourceScene((-10.0, 15.0), (1.0, 1.0), 1.0)
        block = simulate_snapshots(GEOM16, scene, 200, seed=4)
        cfg = BpdnConfig(eta=40.0, max_iterations=40000, tol=1e-6)
        res = l21_svd(block, GRID, GEOM16, cfg, 2)
        assert res.converged
        early = l21_svd(
            block, GRID, GEOM16, dataclasses.replace(cfg, max_iterations=res.n_iter - 50), 2
        )
        assert not early.converged
        assert res.objective <= early.objective * (1.0 + 1e-4) + 1e-9

    def test_degenerate_when_zero_feasible(self):
        scene = SourceScene((5.0,), (1.0,), 1.0)
        block = simulate_snapshots(GEOM16, scene, 100, seed=6)
        res = l21_svd(block, GRID, GEOM16, BpdnConfig(eta=1e9), 1)
        assert res.degenerate
        np.testing.assert_array_equal(res.row_power, np.zeros(121))

    @pytest.mark.parametrize("eta", [-1.0, float("nan")])
    def test_config_rejects_bad_eta(self, eta):
        with pytest.raises(ValueError, match="eta"):
            BpdnConfig(eta=eta)

    def test_flags_nonconvergence(self):
        scene = SourceScene((5.0,), (1.0,), 1.0)
        block = simulate_snapshots(GEOM16, scene, 100, seed=6)
        res = l21_svd(block, GRID, GEOM16, BpdnConfig(eta=10.0, max_iterations=3), 1)
        assert not res.converged
        assert res.n_iter == 3

    def test_row_power_is_squared_row_norm(self):
        scene = SourceScene((0.0, 24.0), (1.0, 1.0), 0.5)
        block = simulate_snapshots(GEOM16, scene, 80, seed=9)
        res = l21_svd(block, GRID, GEOM16, BpdnConfig(eta=20.0, max_iterations=6000), 2)
        assert res.row_power.shape == (121,)
        assert np.all(res.row_power >= 0.0)
        assert res.objective == pytest.approx(np.sum(np.sqrt(res.row_power)), rel=1e-12)
