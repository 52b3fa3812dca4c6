"""Estimator contracts: subspace structure, exactness on true covariances,
peak-picking policy and the row-sparse solver."""

import numpy as np
import pytest

from doabench import estimators
from doabench.arraymodel import (
    GridSpec,
    SourceScene,
    UlaGeometry,
    manifold,
    simulate_snapshots,
    sample_covariance,
    steering_vector,
    true_covariance,
)
from doabench.estimators import (
    EstimatorFailure,
    dimensionality_reduce,
    l21_svd,
    music_spectrum,
    noise_subspace,
    pick_peaks,
    root_music,
)
from doabench.estimators import _pick_apart
from doabench.presets import PRESETS
from doabench.profiles import PROFILES

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
        qe = noise_subspace(sample_covariance(simulate_snapshots(GEOM16, scene, 500, seed=21)), 2)
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
        top_two = set(np.argsort(spec)[-2:])
        assert top_two == {GRID.index_of(-30.0), GRID.index_of(20.0)}

    def test_noiseless_peak_dominance(self):
        scene = SourceScene((0.0,), (1.0,), 0.0)
        spec = music_spectrum(true_covariance(GEOM16, scene), 1, GRID, GEOM16)
        at_source = spec[GRID.index_of(0.0)]
        others = np.delete(spec, GRID.index_of(0.0))
        assert at_source >= 1e3 * others.max()

    def test_length_matches_grid(self):
        scene = SourceScene((5.0,), (1.0,), 1.0)
        spec = music_spectrum(true_covariance(GEOM16, scene), 1, GRID, GEOM16)
        assert spec.shape == (121,)
        assert np.all(spec > 0) and np.all(np.isfinite(spec))

    def test_scale_invariant_peaks(self):
        scene = SourceScene((-14.0, 7.0), (1.0, 1.0), 2.0)
        r = sample_covariance(simulate_snapshots(GEOM16, scene, 300, seed=5))
        picks = pick_peaks(music_spectrum(r, 2, GRID, GEOM16), GRID, 2)
        picks_scaled = pick_peaks(music_spectrum(17.5 * r, 2, GRID, GEOM16), GRID, 2)
        np.testing.assert_array_equal(picks, picks_scaled)


class TestPickPeaks:
    def test_two_isolated_spikes(self):
        values = np.ones(121)
        values[GRID.index_of(-10.0)] = 50.0
        values[GRID.index_of(33.0)] = 40.0
        np.testing.assert_allclose(pick_peaks(values, GRID, 2), [-10.0, 33.0])

    def test_monotone_spectrum_boundary_max(self):
        values = np.linspace(0.0, 1.0, 121)
        np.testing.assert_allclose(pick_peaks(values, GRID, 1), [60.0])

    def test_plateau_tie_breaks_to_smaller_angle(self):
        values = np.zeros(121)
        values[40:45] = 7.0
        picked = pick_peaks(values, GRID, 1)
        np.testing.assert_allclose(picked, [GRID.points[40]])

    def test_fills_when_not_enough_local_maxima(self):
        values = np.linspace(1.0, 0.0, 121)  # single local max at the left edge
        picked = pick_peaks(values, GRID, 2)
        np.testing.assert_allclose(picked, GRID.points[:2])

    def test_rejects_impossible_counts(self):
        with pytest.raises(ValueError):
            pick_peaks(np.ones(121), GRID, 0)
        with pytest.raises(ValueError):
            pick_peaks(np.ones(121), GRID, 122)
        with pytest.raises(ValueError, match="spectrum length does not match the grid"):
            pick_peaks(np.ones(120), GRID, 1)

    def test_matches_two_pass_picker_on_plateaus_and_ties(self):
        rng = np.random.default_rng(12)
        grids = [GRID, GridSpec(30.0, 1.0), GridSpec(10.0, 0.5)]
        for trial in range(1000):
            grid = grids[trial % len(grids)]
            values = rng.integers(0, rng.integers(1, 6), grid.n_points).astype(float)
            k = int(rng.integers(1, 5))
            expected = _two_pass_pick_peaks(values, grid, k)
            assert pick_peaks(values, grid, k).tobytes() == expected.tobytes()

    def test_repeated_candidates_are_picked_once(self):
        # An exactly repeated candidate (such as a double root) is skipped
        # by the fill step too, because each fill pick counts at once.
        picked = _pick_apart([3.0, 3.0, 1.0, 2.0, 2.0], 4, lambda a, b: abs(a - b) < 1.5)
        assert picked == [3.0, 1.0, 2.0]


def _two_pass_pick_peaks(v, grid, k):
    """Peak picking as two ranked passes (local maxima, then the rest) over
    grid indices: the reference for ``pick_peaks``."""
    angles = grid.points
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
    min_sep = grid.resolution_deg / 2.0
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
        r = sample_covariance(simulate_snapshots(GEOM16, scene, 400, seed=8))
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
        y = dimensionality_reduce(np.eye(4, dtype=complex) * 2.0)
        assert y.shape == (4, 4)

    def test_noiseless_two_source_rank(self):
        scene = SourceScene((-20.0, 31.0), (1.0, 1.0), 0.0)
        y = dimensionality_reduce(simulate_snapshots(GEOM16, scene, 100, seed=11))
        assert y.shape == (16, 2)

    def test_frobenius_preserved_at_full_rank(self):
        scene = SourceScene((-20.0, 31.0), (1.0, 1.0), 1.0)
        snapshots = simulate_snapshots(GEOM16, scene, 64, seed=12)
        y = dimensionality_reduce(snapshots)
        np.testing.assert_allclose(np.linalg.norm(y), np.linalg.norm(snapshots), rtol=1e-8)


class TestL21Svd:
    def test_exact_support_noiseless(self):
        scene = SourceScene((7.0,), (1.0,), 0.0)
        y = simulate_snapshots(GEOM16, scene, 50, seed=3)
        res = l21_svd(y, GRID, GEOM16, 0.0, 1)
        idx = GRID.index_of(7.0)
        assert np.argmax(res.row_power) == idx
        others = np.delete(res.row_power, idx)
        assert others.max() <= 1e-4 * res.row_power[idx]
        np.testing.assert_allclose(res.angles, [7.0])

    def test_feasible_at_convergence(self):
        scene = SourceScene((-10.0, 15.0), (1.0, 1.0), 1.0)
        y = simulate_snapshots(GEOM16, scene, 200, seed=4)
        eta = 40.0
        res = l21_svd(y, GRID, GEOM16, eta, 2)
        assert res.converged
        assert res.residual_norm <= eta * (1.0 + 1e-3)

    def test_objective_window_monotone(self, monkeypatch):
        # The iterate wobbles at the convergence-tolerance scale, so the
        # window comparison gets slack proportional to that tolerance.
        scene = SourceScene((-10.0, 15.0), (1.0, 1.0), 1.0)
        y = simulate_snapshots(GEOM16, scene, 200, seed=4)
        res = l21_svd(y, GRID, GEOM16, 40.0, 2)
        assert res.converged
        monkeypatch.setattr(estimators, "_L21_MAX_ITERATIONS", res.n_iter - 50)
        early = l21_svd(y, GRID, GEOM16, 40.0, 2)
        assert not early.converged
        objective, early_objective = (np.sum(np.sqrt(r.row_power)) for r in (res, early))
        assert objective <= early_objective * (1.0 + 1e-4) + 1e-9

    def test_degenerate_when_zero_feasible(self):
        scene = SourceScene((5.0,), (1.0,), 1.0)
        y = simulate_snapshots(GEOM16, scene, 100, seed=6)
        res = l21_svd(y, GRID, GEOM16, 1e9, 1)
        assert res.degenerate
        np.testing.assert_array_equal(res.row_power, np.zeros(121))

    @pytest.mark.parametrize("eta", [-1.0, float("nan")])
    def test_config_rejects_bad_eta(self, eta, monkeypatch):
        def no_svd(*args):
            raise AssertionError("an SVD ran before the noise bound was checked")

        monkeypatch.setattr(estimators, "complex_svd", no_svd)
        y = simulate_snapshots(GEOM16, SourceScene((5.0,), (1.0,), 1.0), 10, seed=6)
        with pytest.raises(ValueError, match="eta must be a non-negative number"):
            l21_svd(y, GRID, GEOM16, eta, 1)

    def test_flags_nonconvergence(self, monkeypatch):
        scene = SourceScene((5.0,), (1.0,), 1.0)
        y = simulate_snapshots(GEOM16, scene, 100, seed=6)
        monkeypatch.setattr(estimators, "_L21_MAX_ITERATIONS", 3)
        res = l21_svd(y, GRID, GEOM16, 10.0, 1)
        assert not res.converged
        assert res.n_iter == 3

    def test_row_power_is_squared_row_norm(self):
        scene = SourceScene((0.0, 24.0), (1.0, 1.0), 0.5)
        y = simulate_snapshots(GEOM16, scene, 80, seed=9)
        res = l21_svd(y, GRID, GEOM16, 20.0, 2)
        assert res.row_power.shape == (121,)
        assert np.all(res.row_power >= 0.0)
        np.testing.assert_array_equal(res.angles, pick_peaks(res.row_power, GRID, 2))


def _l21_reference(y, grid, geom, settings):
    """The l2,1 ADMM loop as it was before the Woodbury x-update and the
    stacked variables (explicit G x G inverse, each block and norm apart),
    kept as an oracle for the rewritten loop. ``settings`` is the tuple (eta,
    iteration cap, tolerance). Returns ``(n_iter, converged, row_power,
    n_inside)``, ``n_inside`` counting the iterations whose residual was
    already inside the eta-ball; the degenerate path is left out."""
    eta, max_iterations, tol = settings
    y_raw = dimensionality_reduce(y)
    a = manifold(geom, grid.points)
    n_grid, r = grid.n_points, y_raw.shape[1]
    scale = float(np.linalg.norm(y_raw))
    assert scale > eta
    y, eta = y_raw / scale, eta / scale

    def shrink(v, threshold):
        norms = np.sqrt(np.sum(np.abs(v) ** 2, axis=1))
        return v * np.maximum(0.0, 1.0 - threshold / np.maximum(norms, 1e-300))[:, None]

    rho = 1.0
    gram_inv = np.linalg.inv(np.eye(n_grid, dtype=np.complex128) + a.conj().T @ a)
    z1 = np.zeros((n_grid, r), dtype=np.complex128)
    z2 = np.zeros((geom.n_sensors, r), dtype=np.complex128)
    u1, u2 = np.zeros_like(z1), np.zeros_like(z2)
    ah = a.conj().T
    converged = False
    n_inside = 0
    for it in range(max_iterations):
        n_iter = it + 1
        x = gram_inv @ ((z1 - u1) + ah @ (z2 - u2))
        ax = a @ x
        z1_new = shrink(x + u1, 1.0 / rho)
        v = ax + u2
        resid = v - y
        resid_norm = float(np.linalg.norm(resid))
        n_inside += resid_norm <= eta
        z2_new = v if resid_norm <= eta else y + resid * (eta / resid_norm)
        u1 += x - z1_new
        u2 += ax - z2_new
        primal = np.sqrt(np.linalg.norm(x - z1_new) ** 2 + np.linalg.norm(ax - z2_new) ** 2)
        dual = rho * np.linalg.norm((z1_new - z1) + ah @ (z2_new - z2))
        z1, z2 = z1_new, z2_new
        eps_primal = 1e-12 + tol * max(
            np.sqrt(np.linalg.norm(x) ** 2 + np.linalg.norm(ax) ** 2),
            np.sqrt(np.linalg.norm(z1) ** 2 + np.linalg.norm(z2) ** 2),
        )
        eps_dual = 1e-12 + tol * rho * (np.linalg.norm(u1) + np.linalg.norm(ah @ u2))
        if primal <= eps_primal and dual <= eps_dual:
            converged = True
            break
        if primal > 10.0 * dual:
            rho *= 2.0
            u1 /= 2.0
            u2 /= 2.0
        elif dual > 10.0 * primal:
            rho /= 2.0
            u1 *= 2.0
            u2 *= 2.0
    return n_iter, converged, np.sum(np.abs(z1 * scale) ** 2, axis=1), n_inside


def _desk_slide_trial(trial: int, max_iterations: int = 30000, t_snapshots=None):
    """Trial ``trial`` of the desk ``slide-2p11`` preset at preset seed 3,
    with the solver's tolerance and the iteration cap ``max_iterations``.
    With ``t_snapshots`` the trial takes that many snapshots, and the noise
    bound keeps its fraction of the expected data norm (times sqrt(T/200))."""
    (point,) = PRESETS["slide-2p11"].points("desk")
    profile = PROFILES["small"]
    t, eta = point.t_snapshots, point.eta
    if t_snapshots is not None:
        t, eta = t_snapshots, eta * np.sqrt(t_snapshots / t)
    y = simulate_snapshots(profile.geom, point.scenes[trial], t, 3 ^ trial)
    return y, profile, (eta, max_iterations, 1e-6), 2


def _full_snr_sweep_trial(snr_db: float):
    """A full-scale 16-sensor ``snr-sweep`` scene at ``snr_db``, trial seed 2."""
    point = next(p for p in PRESETS["snr-sweep"].points("full") if p.x_value == snr_db)
    profile = PROFILES["paper"]
    y = simulate_snapshots(profile.geom, point.scenes[0], point.t_snapshots, 2)
    return y, profile, (point.eta, 30000, 1e-6), 2


def _full_three_source_trial():
    """The full-scale K=3 scene of ``mixed-k-fixed-0db`` at T=40, trial seed
    2, with the noise bound 25 ~ sqrt(N T sigma^2)."""
    point = next(p for p in PRESETS["mixed-k-fixed-0db"].points("full") if p.x_value == 3.0)
    profile = PROFILES["paper"]
    y = simulate_snapshots(profile.geom, point.scenes[0], 40, 2)
    return y, profile, (25.0, 30000, 1e-6), 3


def _desk_inside_ball_trial():
    """One desk source at -0.7 deg, noise power 0.4, T=7, seed 235 and the
    noise bound 5: one of its iterations finds the residual already inside
    the eta-ball, a branch the desk ``slide-2p11`` and ``smoke`` solves at preset
    seed 3 never take."""
    profile = PROFILES["small"]
    y = simulate_snapshots(profile.geom, SourceScene((-0.7,), (1.0,), 0.4), 7, 235)
    return y, profile, (5.0, 30000, 1e-6), 1


class TestL21MatchesReferenceLoop:
    """The rewritten ADMM loop computes the reference loop's iterates up to
    rounding: the same stopping iteration, convergence flag and picks, and
    row powers within 1e-8 relative (1e-8 of the largest for near-zero rows).

    The cases cover R = N reduced columns (8 at desk, 16 at full scale), and
    R = 1, 3 and 7 at desk. The branch where the residual is already inside
    the eta-ball (``resid_norm <= eta``) ran in none of the 142,074
    iterations of desk ``slide-2p11`` and ``smoke`` at preset seed 3; only the
    last case reaches it."""

    @pytest.mark.parametrize(
        "case",
        [
            pytest.param(lambda: _desk_slide_trial(0), id="desk-slide-2p11-trial-0"),
            pytest.param(lambda: _desk_slide_trial(19), id="desk-slide-2p11-trial-19"),
            pytest.param(lambda: _desk_slide_trial(38), id="desk-slide-2p11-trial-38"),
            pytest.param(lambda: _desk_slide_trial(57), id="desk-slide-2p11-trial-57"),
            pytest.param(lambda: _desk_slide_trial(0, 300), id="desk-slide-2p11-capped"),
            pytest.param(lambda: _full_snr_sweep_trial(-20.0), id="full-snr-sweep-minus-20db"),
            pytest.param(lambda: _full_snr_sweep_trial(10.0), id="full-snr-sweep-10db"),
            pytest.param(lambda: _desk_slide_trial(0, t_snapshots=1), id="desk-one-snapshot"),
            pytest.param(lambda: _desk_slide_trial(0, t_snapshots=3), id="desk-three-snapshots"),
            pytest.param(_full_three_source_trial, id="full-three-sources-40-snapshots"),
            pytest.param(_desk_inside_ball_trial, id="desk-residual-inside-the-ball"),
        ],
    )
    def test_same_iterates(self, case, monkeypatch):
        y, profile, settings, k = case()
        eta, max_iterations, tol = settings
        assert tol == estimators._L21_TOL
        monkeypatch.setattr(estimators, "_L21_MAX_ITERATIONS", max_iterations)
        assert dimensionality_reduce(y).shape[1] == min(y.shape)
        res = l21_svd(y, profile.grid, profile.geom, eta, k)
        n_iter, converged, row_power, n_inside = _l21_reference(
            y, profile.grid, profile.geom, settings
        )
        assert (n_inside > 0) == (eta == 5.0)  # only the inside-the-ball case
        assert (res.n_iter, res.converged) == (n_iter, converged)
        assert converged == (max_iterations == 30000)  # only the capped solve stops early
        np.testing.assert_array_equal(res.angles, pick_peaks(row_power, profile.grid, k))
        np.testing.assert_allclose(
            res.row_power, row_power, rtol=1e-8, atol=1e-8 * row_power.max()
        )
