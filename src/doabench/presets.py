"""Named benchmark experiments and their runner.

Each preset fixes scenes, snapshot counts, noise bounds and Monte-Carlo
counts for one experiment, at two scales: ``full`` (16-sensor array,
121-point grid) and ``desk`` (8 sensors, 61 points, Monte-Carlo counts
reduced 10x, noise bounds scaled by sqrt of the sensor ratio). A run is
fully determined by (preset, seed, scale): trial t uses the generator seeded
with ``seed XOR t``, and the emitted CSV files are byte-reproducible.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .arraymodel import (
    GridSpec,
    SourceScene,
    UlaGeometry,
    build_input_channels,
    sample_covariance,
    simulate_snapshots,
)
from .crlb import crlb_unconditional
from .estimators import BpdnConfig, l21_svd, music_spectrum, pick_peaks, root_music
from .metrics import confusion, hausdorff, rmse
from .nn import load_checkpoint
from .profiles import PROFILES
from .training import noise_power_for_snr, predict_threshold, predict_topk

__all__ = ["ExperimentPreset", "PRESETS", "run_preset", "preset_names"]

# Noise bounds at desk scale keep the full-scale bound's fraction of the
# expected data norm, which scales with the square root of the sensor count.
_DESK_ETA_FACTOR = np.sqrt(8.0 / 16.0)

# Benchmark solves run tighter than the solver's defaults: the recovered
# support stabilizes at 1e-6 (checked against 1e-7) while 1e-4 still moves.
_L21_TOL = 1e-6
_L21_MAX_ITERATIONS = 30000

CLASSICAL_METHODS = ("music", "rmusic", "l21svd")


@dataclass(frozen=True)
class ScenePoint:
    """One sweep point: the scenes it evaluates and their parameters."""

    x_value: float
    scenes: tuple[SourceScene, ...]
    t_snapshots: int
    eta: float
    mc_per_scene: int
    crlb_scene: SourceScene | None = None


@dataclass(frozen=True)
class ExperimentPreset:
    """A named experiment: sweep definition plus method and decode policy."""

    name: str
    description: str
    x_name: str
    methods: tuple[str, ...]
    points_full: tuple[ScenePoint, ...]
    points_desk: tuple[ScenePoint, ...]
    # confidence level per true source count, for threshold decoding
    confidence: dict | None = None

    def points(self, scale: str) -> tuple[ScenePoint, ...]:
        if scale == "full":
            return self.points_full
        if scale == "desk":
            return self.points_desk
        raise ValueError(f"unknown scale {scale!r} (expected 'full' or 'desk')")

    @property
    def needs_checkpoint(self) -> bool:
        return any(m.startswith("cnn") for m in self.methods)


def _geometry(scale: str) -> tuple[UlaGeometry, GridSpec]:
    profile = PROFILES["paper" if scale == "full" else "small"]
    return profile.geom, profile.grid


def _pair_scene(th1: float, delta: float, noise: float, powers=(1.0, 1.0)) -> SourceScene:
    return SourceScene((th1, th1 + delta), powers, noise)


def _slide_points(
    start: float, stop: float, delta: float, noise: float, t: int, eta: float,
    powers=(1.0, 1.0),
) -> tuple[ScenePoint, ...]:
    scenes = tuple(
        _pair_scene(float(th1), delta, noise, powers)
        for th1 in np.arange(start, stop + 0.5, 1.0)
    )
    return (ScenePoint(0.0, scenes, t, eta, 1),)


def _snr_sweep_points(doas, snrs, etas, t, mc) -> tuple[ScenePoint, ...]:
    points = []
    for snr, eta in zip(snrs, etas):
        scene = SourceScene(doas, (1.0,) * len(doas), noise_power_for_snr(snr))
        points.append(ScenePoint(float(snr), (scene,), t, float(eta), mc, scene))
    return tuple(points)


def _snapshot_sweep_points(doas, noise, t_list, etas, mc) -> tuple[ScenePoint, ...]:
    scene = SourceScene(doas, (1.0,) * len(doas), noise)
    return tuple(
        ScenePoint(float(t), (scene,), int(t), float(eta), mc, scene)
        for t, eta in zip(t_list, etas)
    )


def _sep_sweep_points(th1, deltas, noise, t, eta, mc) -> tuple[ScenePoint, ...]:
    points = []
    for d in deltas:
        scene = _pair_scene(th1, float(d), noise)
        points.append(ScenePoint(float(d), (scene,), t, eta, mc, scene))
    return tuple(points)


def _mixed_fixed_points(k_max, noise, t, mc) -> tuple[ScenePoint, ...]:
    angle_sets = ((7.8,), (7.8, -2.6), (7.8, -2.6, 2.6))
    points = []
    for k in range(1, k_max + 1):
        scene = SourceScene(angle_sets[k - 1], (1.0,) * k, noise)
        points.append(ScenePoint(float(k), (scene,), t, 0.0, mc))
    return tuple(points)


def _mixed_sweep_points(k_max, noise, t, phi_max) -> tuple[ScenePoint, ...]:
    # K sources 10 degrees apart sliding across the grid, 1 trial per scene.
    points = []
    for k in range(1, k_max + 1):
        start = -phi_max + 0.2
        stop = phi_max - 0.8 - 10.0 * (k - 1)
        scenes = tuple(
            SourceScene(
                tuple(float(th) + 10.0 * j for j in range(k)), (1.0,) * k, noise
            )
            for th in np.arange(start, stop + 0.5, 1.0)
        )
        points.append(ScenePoint(float(k), scenes, t, 0.0, 1))
    return tuple(points)


def _desk_eta(eta: float) -> float:
    return round(eta * _DESK_ETA_FACTOR)


_ETA_SNR_FULL = (1260.0, 700.0, 400.0, 230.0, 140.0, 100.0, 70.0, 70.0, 60.0, 60.0, 60.0)
_SNR_LIST = (-20.0, -15.0, -10.0, -5.0, 0.0, 5.0, 10.0, 15.0, 20.0, 25.0, 30.0)
_ETA_T_FULL = (130.0, 180.0, 270.0, 410.0, 570.0, 910.0, 1280.0)
_T_LIST = (100, 200, 500, 1000, 2000, 5000, 10000)
_SEP_LIST = (1, 2, 3, 4, 5, 6, 7, 8, 10, 12, 14)


PRESETS: dict[str, ExperimentPreset] = {
    "slide-4p7": ExperimentPreset(
        name="slide-4p7",
        description="Two sources 4.7 deg apart sliding across the grid at -10 dB, T=2000",
        x_name="scene",
        methods=CLASSICAL_METHODS + ("cnn-topk",),
        points_full=_slide_points(-60.0, 55.0, 4.7, 10.0, 2000, 550.0),
        points_desk=_slide_points(-30.0, 25.0, 4.7, 10.0, 2000, _desk_eta(550.0)),
    ),
    "slide-2p11": ExperimentPreset(
        name="slide-2p11",
        description="Two sources 2.11 deg apart sliding across the grid at 0 dB, T=200",
        x_name="scene",
        methods=CLASSICAL_METHODS + ("cnn-topk",),
        points_full=_slide_points(-59.5, 57.5, 2.11, 1.0, 200, 60.0),
        points_desk=_slide_points(-29.5, 27.5, 2.11, 1.0, 200, _desk_eta(60.0)),
    ),
    "snr-sweep": ExperimentPreset(
        name="snr-sweep",
        description="RMSE vs SNR for two fixed off-grid sources, T=1000",
        x_name="snr_db",
        methods=CLASSICAL_METHODS + ("cnn-topk",),
        points_full=_snr_sweep_points((10.11, 13.3), _SNR_LIST, _ETA_SNR_FULL, 1000, 1000),
        points_desk=_snr_sweep_points(
            (10.11, 13.3), _SNR_LIST, tuple(_desk_eta(e) for e in _ETA_SNR_FULL), 1000, 100
        ),
    ),
    "snapshot-sweep": ExperimentPreset(
        name="snapshot-sweep",
        description="RMSE vs snapshot count for two fixed off-grid sources at -10 dB",
        x_name="snapshots",
        methods=CLASSICAL_METHODS + ("cnn-topk",),
        points_full=_snapshot_sweep_points((-13.18, -9.58), 10.0, _T_LIST, _ETA_T_FULL, 1000),
        points_desk=_snapshot_sweep_points(
            (-13.18, -9.58), 10.0, _T_LIST, tuple(_desk_eta(e) for e in _ETA_T_FULL), 100
        ),
    ),
    "sep-sweep": ExperimentPreset(
        name="sep-sweep",
        description="RMSE vs angular separation at -10 dB, T=500",
        x_name="delta_theta",
        methods=CLASSICAL_METHODS + ("cnn-topk",),
        points_full=_sep_sweep_points(-13.8, _SEP_LIST, 10.0, 500, 290.0, 500),
        points_desk=_sep_sweep_points(-13.8, _SEP_LIST, 10.0, 500, _desk_eta(290.0), 50),
    ),
    "snr-mismatch-0db": ExperimentPreset(
        name="snr-mismatch-0db",
        description="Sliding scenes with perturbed source powers (actual SNR -1.549 dB), T=200",
        x_name="scene",
        methods=("l21svd", "cnn-topk"),
        points_full=_slide_points(-59.5, 57.5, 2.11, 1.0, 200, 60.0, powers=(0.7, 1.25)),
        points_desk=_slide_points(-29.5, 27.5, 2.11, 1.0, 200, _desk_eta(60.0), powers=(0.7, 1.25)),
    ),
    "snr-mismatch-m10db": ExperimentPreset(
        name="snr-mismatch-m10db",
        description="Sliding scenes with perturbed source powers (actual SNR -11.549 dB), T=1000",
        x_name="scene",
        methods=("l21svd", "cnn-topk"),
        points_full=_slide_points(-59.43, 55.57, 4.0, 10.0, 1000, 400.0, powers=(0.7, 1.25)),
        points_desk=_slide_points(-29.43, 25.57, 4.0, 10.0, 1000, _desk_eta(400.0), powers=(0.7, 1.25)),
    ),
    "mixed-k-fixed-m10db": ExperimentPreset(
        name="mixed-k-fixed-m10db",
        description="Unknown source count, fixed off-grid scenes at -10 dB, T=3000",
        x_name="k_true",
        methods=("cnn-threshold", "cnn-topk"),
        points_full=_mixed_fixed_points(3, 10.0, 3000, 10000),
        points_desk=_mixed_fixed_points(2, 10.0, 3000, 1000),
        confidence={1: 0.90, 2: 0.74, 3: 0.71},
    ),
    "mixed-k-fixed-0db": ExperimentPreset(
        name="mixed-k-fixed-0db",
        description="Unknown source count, fixed off-grid scenes at 0 dB, T=1000",
        x_name="k_true",
        methods=("cnn-threshold", "cnn-topk"),
        points_full=_mixed_fixed_points(3, 1.0, 1000, 10000),
        points_desk=_mixed_fixed_points(2, 1.0, 1000, 1000),
        confidence={1: 0.90, 2: 0.77, 3: 0.70},
    ),
    "mixed-k-sweep-m10db": ExperimentPreset(
        name="mixed-k-sweep-m10db",
        description="Unknown source count, sources sliding across the grid at -10 dB, T=3000",
        x_name="k_true",
        methods=("cnn-threshold",),
        points_full=_mixed_sweep_points(3, 10.0, 3000, 60.0),
        points_desk=_mixed_sweep_points(2, 10.0, 3000, 30.0),
        confidence={1: 0.88, 2: 0.84, 3: 0.71},
    ),
    "mixed-k-sweep-0db": ExperimentPreset(
        name="mixed-k-sweep-0db",
        description="Unknown source count, sources sliding across the grid at 0 dB, T=1000",
        x_name="k_true",
        methods=("cnn-threshold",),
        points_full=_mixed_sweep_points(3, 1.0, 1000, 60.0),
        points_desk=_mixed_sweep_points(2, 1.0, 1000, 30.0),
        confidence={1: 0.90, 2: 0.77, 3: 0.70},
    ),
    "smoke": ExperimentPreset(
        name="smoke",
        description="Tiny two-point sweep for format and determinism checks",
        x_name="snr_db",
        methods=CLASSICAL_METHODS,
        points_full=_snr_sweep_points((-10.4, 9.7), (-10.0, 0.0), (80.0, 25.0), 200, 3),
        points_desk=_snr_sweep_points((-10.4, 9.7), (-10.0, 0.0), (57.0, 18.0), 200, 3),
    ),
}


def preset_names() -> list[str]:
    return sorted(PRESETS)


def _format_angles(angles) -> str:
    return ";".join(repr(float(a)) for a in np.atleast_1d(angles))


def _load_cnn(checkpoint_path, geom: UlaGeometry, grid: GridSpec):
    spec, params, metadata = load_checkpoint(checkpoint_path)
    if metadata.get("n_sensors") != geom.n_sensors:
        raise ValueError(
            f"checkpoint was trained for {metadata.get('n_sensors')} sensors, "
            f"this preset scale uses {geom.n_sensors}"
        )
    if (
        metadata.get("phi_max_deg") != grid.phi_max_deg
        or metadata.get("resolution_deg") != grid.resolution_deg
    ):
        raise ValueError("checkpoint grid does not match the preset scale's grid")
    return spec, params


def run_preset(
    name: str,
    seed: int,
    scale: str = "desk",
    out_dir="results",
    checkpoint=None,
    eta_override=None,
    snapshots_override=None,
) -> dict:
    """Run a named experiment and write its result files.

    Emits ``<name>_<scale>_trials.csv`` (one row per trial and method),
    ``<name>_<scale>_aggregate.csv`` (one row per sweep point and method,
    plot-ready), a confusion-matrix CSV for source-count presets, and a JSON
    run manifest. Returns a summary dict with file paths and aggregates.
    """
    if name not in PRESETS:
        raise ValueError(
            f"unknown preset {name!r}; available presets: {', '.join(preset_names())}"
        )
    preset = PRESETS[name]
    geom, grid = _geometry(scale)
    points = list(preset.points(scale))

    if snapshots_override is not None:
        points = [
            ScenePoint(p.x_value, p.scenes, int(snapshots_override), p.eta,
                       p.mc_per_scene, p.crlb_scene)
            for p in points
        ]
    if eta_override is not None:
        etas = list(np.atleast_1d(np.asarray(eta_override, dtype=np.float64)))
        if len(etas) == 1:
            etas = etas * len(points)
        if len(etas) != len(points):
            raise ValueError(
                f"--eta needs 1 or {len(points)} values for preset {name!r}, got {len(etas)}"
            )
        points = [
            ScenePoint(p.x_value, p.scenes, p.t_snapshots, float(eta),
                       p.mc_per_scene, p.crlb_scene)
            for p, eta in zip(points, etas)
        ]

    methods = list(preset.methods)
    cnn = None
    if preset.needs_checkpoint:
        if checkpoint is None:
            if all(m.startswith("cnn") for m in methods):
                raise ValueError(
                    f"preset {name!r} evaluates the network; train one with "
                    f"`doabench train --profile {'paper' if scale == 'full' else 'small'}` "
                    "and pass --checkpoint"
                )
            methods = [m for m in methods if not m.startswith("cnn")]
        else:
            cnn = _load_cnn(checkpoint, geom, grid)

    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    started = time.time()

    trial_rows = []
    per_point: dict[tuple[float, str], dict] = {}
    count_pairs = []  # (true K, predicted K) for threshold decoding
    trial_index = 0
    for point in points:
        for method in methods:
            per_point[(point.x_value, method)] = {
                "truths": [], "estimates": [], "dh": [], "n_undefined": 0,
            }
        for scene_index, scene in enumerate(point.scenes):
            k_true = scene.n_sources
            for mc_index in range(point.mc_per_scene):
                trial_seed = seed ^ trial_index
                trial_index += 1
                block = simulate_snapshots(geom, scene, point.t_snapshots, trial_seed)
                cov = sample_covariance(block)
                for method in methods:
                    flag = ""
                    if method == "music":
                        est = pick_peaks(music_spectrum(cov, k_true, grid, geom), k_true)
                    elif method == "rmusic":
                        est = root_music(cov, k_true, geom)
                    elif method == "l21svd":
                        res = l21_svd(
                            block, grid, geom,
                            BpdnConfig(
                                eta=point.eta,
                                max_iterations=_L21_MAX_ITERATIONS,
                                primal_tol=_L21_TOL,
                                dual_tol=_L21_TOL,
                            ),
                            k_true,
                        )
                        est = res.angles
                        if res.degenerate:
                            flag = "degenerate"
                        elif not res.converged:
                            flag = "nonconverged"
                    elif method == "cnn-topk":
                        spec, params = cnn
                        est = predict_topk(
                            spec, params, grid, build_input_channels(cov), k_true
                        )
                    elif method == "cnn-threshold":
                        spec, params = cnn
                        p_bar = preset.confidence[k_true]
                        est = predict_threshold(
                            spec, params, grid, build_input_channels(cov), p_bar
                        )
                        count_pairs.append((k_true, len(est)))
                    else:
                        raise ValueError(f"unknown method {method!r}")

                    dh = hausdorff(scene.doas_deg, est)
                    bucket = per_point[(point.x_value, method)]
                    if np.isfinite(dh):
                        bucket["dh"].append(dh)
                    else:
                        bucket["n_undefined"] += 1
                    sq_err = ""
                    if len(est) == k_true:
                        diff = np.sort(np.asarray(est)) - np.sort(np.asarray(scene.doas_deg))
                        sq_err = repr(float(np.mean(diff**2)))
                        bucket["truths"].append(scene.doas_deg)
                        bucket["estimates"].append(tuple(est))
                    trial_rows.append(
                        [
                            name, scale, preset.x_name, repr(float(point.x_value)),
                            str(scene_index), str(mc_index), str(trial_seed), method,
                            str(k_true), _format_angles(scene.doas_deg),
                            str(len(est)), _format_angles(est), sq_err,
                            repr(float(dh)) if np.isfinite(dh) else "inf", flag,
                        ]
                    )

    aggregate_rows = []
    aggregates = {}
    for point in points:
        crlb_value = ""
        if point.crlb_scene is not None:
            bound = crlb_unconditional(geom, point.crlb_scene, point.t_snapshots)
            crlb_value = repr(float(np.sqrt(np.mean(bound**2))))
        for method in methods:
            bucket = per_point[(point.x_value, method)]
            r = ""
            if bucket["truths"]:
                r = repr(float(rmse(bucket["truths"], bucket["estimates"])))
            dh_arr = np.asarray(bucket["dh"])
            mean_dh = repr(float(dh_arr.mean())) if dh_arr.size else ""
            max_dh = repr(float(dh_arr.max())) if dh_arr.size else ""
            n_trials = len(point.scenes) * point.mc_per_scene
            aggregate_rows.append(
                [
                    name, scale, preset.x_name, repr(float(point.x_value)), method,
                    str(n_trials), r, mean_dh, max_dh, str(bucket["n_undefined"]),
                    crlb_value,
                ]
            )
            aggregates[(point.x_value, method)] = {
                "rmse_deg": float(r) if r else None,
                "mean_dh_deg": float(mean_dh) if mean_dh else None,
                "max_dh_deg": float(max_dh) if max_dh else None,
                "n_undefined_dh": bucket["n_undefined"],
                "crlb_rmse_deg": float(crlb_value) if crlb_value else None,
            }

    trials_path = out_dir / f"{name}_{scale}_trials.csv"
    _write_csv(
        trials_path,
        "# one row per trial and method; angles joined by ';' in degrees; "
        "sq_err_mean is the mean squared sorted-pair error over the set; "
        "dh_deg is the Hausdorff distance (inf marks a detection failure)",
        [
            "preset", "scale", "x_name", "x_value", "scene_index", "mc_index",
            "trial_seed", "method", "k_true", "truth_deg", "k_est",
            "estimates_deg", "sq_err_mean", "dh_deg", "flag",
        ],
        trial_rows,
    )
    aggregate_path = out_dir / f"{name}_{scale}_aggregate.csv"
    _write_csv(
        aggregate_path,
        "# one row per sweep point and method; rmse_deg over trials where "
        "the estimate cardinality matches; crlb_rmse_deg is the rms of the "
        "per-angle standard-deviation bounds",
        [
            "preset", "scale", "x_name", "x_value", "method", "n_trials",
            "rmse_deg", "mean_dh_deg", "max_dh_deg", "n_undefined_dh",
            "crlb_rmse_deg",
        ],
        aggregate_rows,
    )
    paths = {"trials": str(trials_path), "aggregate": str(aggregate_path)}

    if count_pairs:
        k_display = max(max(t for t, _ in count_pairs), 3)
        matrix = confusion(
            [t for t, _ in count_pairs], [p for _, p in count_pairs], k_display
        )
        confusion_path = out_dir / f"{name}_{scale}_confusion.csv"
        _write_csv(
            confusion_path,
            "# rows: true source count 0..K; columns: predicted count "
            "(last column absorbs larger predictions)",
            ["k_true"] + [f"pred_{j}" for j in range(k_display + 1)],
            [[str(i)] + [str(int(v)) for v in row] for i, row in enumerate(matrix)],
        )
        paths["confusion"] = str(confusion_path)

    manifest = {
        "preset": name,
        "scale": scale,
        "seed": seed,
        "n_trials": trial_index,
        "methods": methods,
        "snapshots_override": snapshots_override,
        "eta_override": None if eta_override is None else list(np.atleast_1d(eta_override)),
        "checkpoint": None if checkpoint is None else str(checkpoint),
        "workbench_version": __version__,
        "numpy_version": np.__version__,
        "elapsed_seconds": round(time.time() - started, 3),
        "files": paths,
    }
    manifest_path = out_dir / f"{name}_{scale}_manifest.json"
    manifest_path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    paths["manifest"] = str(manifest_path)

    return {"paths": paths, "aggregates": aggregates, "n_trials": trial_index}


def _write_csv(path: Path, comment: str, header: list[str], rows) -> None:
    lines = [comment, ",".join(header)]
    lines += [",".join(row) for row in rows]
    path.write_text("\n".join(lines) + "\n")
