"""Named benchmark experiments and their runner.

Each preset is written once, at full scale (the ``paper`` profile's 16-sensor
array and 121-point grid): scenes, snapshot counts, noise bounds and
Monte-Carlo counts. The ``desk`` scale follows from one rule (``_SCALES``):
the ``small`` profile's 8 sensors and 61-point grid over +-30 deg, so sliding
scenes slide over the narrower grid (still one trial per scene) and mixed-K
presets stop at K=2; noise bounds ``round(eta * sqrt(8/16))``, the same
fraction of the expected data norm; and a tenth of every Monte-Carlo count of
10 or more. A run is fully determined by (preset, seed, scale): trial t uses
the generator seeded with ``seed XOR t``; the CSV files are byte-reproducible.
"""

from __future__ import annotations

import json
import operator
import os
import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, NamedTuple

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
from .estimators import (
    EstimatorFailure,
    l21_svd,
    music_spectrum,
    pick_peaks,
    root_music,
)
from .metrics import confusion, hausdorff, rmse
from .nn import Network, load_checkpoint
from .numerics import NumericalError
from .profiles import PROFILES, Profile
from .training import noise_power_for_snr, predict_threshold, predict_topk

__all__ = ["ExperimentPreset", "PRESETS", "PresetArgumentError", "run_preset", "preset_names"]

CLASSICAL_METHODS = ("music", "rmusic", "l21svd")


class PresetArgumentError(ValueError):
    """An argument of :func:`run_preset` names no preset, or does not fit the
    named one; raised before any directory, file or trial."""


@dataclass(frozen=True)
class ScenePoint:
    """One sweep point: the scenes it evaluates and their parameters."""

    x_value: float
    scenes: tuple[SourceScene, ...]
    t_snapshots: int
    eta: float
    mc_per_scene: int
    crlb_scene: SourceScene | None = None

    def __post_init__(self):
        if self.t_snapshots < 1:
            raise PresetArgumentError(f"need at least one snapshot, got {self.t_snapshots}")
        if not self.eta >= 0:
            raise PresetArgumentError(
                f"the noise bound eta must be a non-negative number, got {self.eta}"
            )


class _Scale(NamedTuple):
    profile: Profile  # array, grid and largest mixed source count
    eta: Callable[[float], float]  # noise bound from the full-scale bound
    mc: Callable[[int], int]  # Monte-Carlo trials per scene from the full-scale count


_SCALES = {
    "full": _Scale(PROFILES["paper"], float, int),
    "desk": _Scale(
        PROFILES["small"],
        lambda eta: float(round(eta * np.sqrt(8.0 / 16.0))),
        lambda mc: mc // 10 if mc >= 10 else mc,
    ),
}


@dataclass(frozen=True)
class ExperimentPreset:
    """A named experiment: sweep definition plus method and decode policy."""

    description: str
    x_name: str
    methods: tuple[str, ...]
    # the sweep points at full scale's eta and Monte-Carlo counts, for a profile
    sweep: Callable[[Profile], tuple[ScenePoint, ...]]
    # confidence level per true source count, for threshold decoding
    confidence: dict | None = None

    def points(self, scale: str) -> tuple[ScenePoint, ...]:
        if scale not in _SCALES:
            raise PresetArgumentError(f"unknown scale {scale!r} (expected 'full' or 'desk')")
        profile, eta, mc = _SCALES[scale]
        return tuple(
            replace(p, eta=eta(p.eta), mc_per_scene=mc(p.mc_per_scene))
            for p in self.sweep(profile)
        )


def _scene(doas, noise: float, powers=None) -> SourceScene:
    return SourceScene(doas, powers or (1.0,) * len(doas), noise)


def _sliding(phi_max, offsets, spacing, k, noise, powers=None) -> tuple[SourceScene, ...]:
    """K sources ``spacing`` deg apart whose first one steps by 1 deg from
    ``offsets[0]`` above the grid's lower edge to ``offsets[1]`` below its upper edge."""
    return tuple(
        _scene(tuple(float(th) + spacing * j for j in range(k)), noise, powers)
        for th in np.arange(-phi_max + offsets[0], phi_max - offsets[1] + 0.5, 1.0)
    )


def _slide(offsets, spacing, noise, t, eta, powers=None):
    """Two sources sliding across the grid, one trial per scene, in one point."""
    def build(profile):
        scenes = _sliding(profile.grid.phi_max_deg, offsets, spacing, 2, noise, powers)
        return (ScenePoint(0.0, scenes, t, eta, 1),)
    return build


def _sweep(xs, etas, mc, scene_and_t):
    """One scene per x value, with its CRB; ``scene_and_t(x)`` gives both."""
    def point(x, eta):
        scene, t = scene_and_t(x)
        return ScenePoint(float(x), (scene,), t, eta, mc, scene)
    return lambda profile: tuple(map(point, xs, etas))


def _fixed_scene(k, noise, phi_max):
    return (_scene((7.8, -2.6, 2.6)[:k], noise),)


def _sliding_sources(k, noise, phi_max):
    return _sliding(phi_max, (0.2, 0.8 + 10.0 * (k - 1)), 10.0, k, noise)


def _mixed_k(scenes, noise, t, mc):
    """One point per true source count K = 1 .. the profile's mixed_k_max, whose
    scenes hold the first K of three fixed off-grid sources (``_fixed_scene``)
    or K sources 10 deg apart sliding across the grid (``_sliding_sources``)."""
    def build(profile):
        return tuple(
            ScenePoint(float(k), scenes(k, noise, profile.grid.phi_max_deg), t, 0.0, mc)
            for k in range(1, profile.mixed_k_max + 1)
        )
    return build


_WITH_CNN = CLASSICAL_METHODS + ("cnn-topk",)
_SNR_LIST = (-20.0, -15.0, -10.0, -5.0, 0.0, 5.0, 10.0, 15.0, 20.0, 25.0, 30.0)
_SEP_LIST = (1, 2, 3, 4, 5, 6, 7, 8, 10, 12, 14)

PRESETS: dict[str, ExperimentPreset] = {
    "slide-4p7": ExperimentPreset(
        "Two sources 4.7 deg apart sliding across the grid at -10 dB, T=2000",
        "scene", _WITH_CNN, _slide((0.0, 5.0), 4.7, 10.0, 2000, 550.0),
    ),
    "slide-2p11": ExperimentPreset(
        "Two sources 2.11 deg apart sliding across the grid at 0 dB, T=200",
        "scene", _WITH_CNN, _slide((0.5, 2.5), 2.11, 1.0, 200, 60.0),
    ),
    "snr-sweep": ExperimentPreset(
        "RMSE vs SNR for two fixed off-grid sources, T=1000",
        "snr_db", _WITH_CNN,
        _sweep(
            _SNR_LIST,
            (1260.0, 700.0, 400.0, 230.0, 140.0, 100.0, 70.0, 70.0, 60.0, 60.0, 60.0),
            1000,
            lambda snr: (_scene((10.11, 13.3), noise_power_for_snr(snr)), 1000),
        ),
    ),
    "snapshot-sweep": ExperimentPreset(
        "RMSE vs snapshot count for two fixed off-grid sources at -10 dB",
        "snapshots", _WITH_CNN,
        _sweep(
            (100, 200, 500, 1000, 2000, 5000, 10000),
            (130.0, 180.0, 270.0, 410.0, 570.0, 910.0, 1280.0),
            1000,
            lambda t: (_scene((-13.18, -9.58), 10.0), t),
        ),
    ),
    "sep-sweep": ExperimentPreset(
        "RMSE vs angular separation at -10 dB, T=500",
        "delta_theta", _WITH_CNN,
        _sweep(
            _SEP_LIST, (290.0,) * len(_SEP_LIST), 500,
            lambda d: (_scene((-13.8, -13.8 + d), 10.0), 500),
        ),
    ),
    "snr-mismatch-0db": ExperimentPreset(
        "Sliding scenes with perturbed source powers (actual SNR -1.549 dB), T=200",
        "scene", ("l21svd", "cnn-topk"),
        _slide((0.5, 2.5), 2.11, 1.0, 200, 60.0, powers=(0.7, 1.25)),
    ),
    "snr-mismatch-m10db": ExperimentPreset(
        "Sliding scenes with perturbed source powers (actual SNR -11.549 dB), T=1000",
        "scene", ("l21svd", "cnn-topk"),
        _slide((0.57, 4.43), 4.0, 10.0, 1000, 400.0, powers=(0.7, 1.25)),
    ),
    "mixed-k-fixed-m10db": ExperimentPreset(
        "Unknown source count, fixed off-grid scenes at -10 dB, T=3000",
        "k_true", ("cnn-threshold", "cnn-topk"), _mixed_k(_fixed_scene, 10.0, 3000, 10000),
        confidence={1: 0.90, 2: 0.74, 3: 0.71},
    ),
    "mixed-k-fixed-0db": ExperimentPreset(
        "Unknown source count, fixed off-grid scenes at 0 dB, T=1000",
        "k_true", ("cnn-threshold", "cnn-topk"), _mixed_k(_fixed_scene, 1.0, 1000, 10000),
        confidence={1: 0.90, 2: 0.77, 3: 0.70},
    ),
    "mixed-k-sweep-m10db": ExperimentPreset(
        "Unknown source count, sources sliding across the grid at -10 dB, T=3000",
        "k_true", ("cnn-threshold",), _mixed_k(_sliding_sources, 10.0, 3000, 1),
        confidence={1: 0.88, 2: 0.84, 3: 0.71},
    ),
    "mixed-k-sweep-0db": ExperimentPreset(
        "Unknown source count, sources sliding across the grid at 0 dB, T=1000",
        "k_true", ("cnn-threshold",), _mixed_k(_sliding_sources, 1.0, 1000, 1),
        confidence={1: 0.90, 2: 0.77, 3: 0.70},
    ),
    "smoke": ExperimentPreset(
        "Tiny two-point sweep for format and determinism checks",
        "snr_db", CLASSICAL_METHODS,
        _sweep(
            (-10.0, 0.0), (80.0, 25.0), 3,
            lambda snr: (_scene((-10.4, 9.7), noise_power_for_snr(snr)), 200),
        ),
    ),
}


def preset_names() -> list[str]:
    return sorted(PRESETS)


def _format_angles(angles) -> str:
    return ";".join(map(repr, np.atleast_1d(np.asarray(angles, float)).tolist()))


class _Trial(NamedTuple):
    """What the methods of one Monte-Carlo trial see."""

    geom: UlaGeometry
    grid: GridSpec
    point: ScenePoint
    k: int  # true source count
    y: np.ndarray | None  # the N x T snapshots, dropped once the methods that read them ran
    cov: np.ndarray
    p: np.ndarray | None  # the loaded network's probability per grid point
    confidence: dict | None


def _l21(t: _Trial):
    res = l21_svd(t.y, t.grid, t.geom, t.point.eta, t.k)
    return res.angles, "degenerate" if res.degenerate else "" if res.converged else "nonconverged"


# Each method maps a trial to (estimated angles, flag). The estimators are
# looked up by their module names at call time, so wrapping them still works.
_METHODS = {
    "music": lambda t: (pick_peaks(music_spectrum(t.cov, t.k, t.grid, t.geom), t.grid, t.k), ""),
    "rmusic": lambda t: (root_music(t.cov, t.k, t.geom), ""),
    "l21svd": _l21,
    "cnn-topk": lambda t: (predict_topk(t.p, t.grid, t.k), ""),
    "cnn-threshold": lambda t: (predict_threshold(t.p, t.grid, t.confidence[t.k]), ""),
}


def _run(method: str, trial: _Trial):
    try:
        return _METHODS[method](trial)
    except (EstimatorFailure, NumericalError) as exc:
        # The message is left out: it may hold the CSV's commas.
        return (), f"failed:{type(exc).__name__}"


# Trials per network forward: larger blocks were no faster and held more
# memory. A probability may differ from a one-example forward in its last bits.
_FORWARD_BATCH = 32

_TRIALS_HEAD = (
    "# one row per trial and method; angles joined by ';' in degrees; "
    "sq_err_mean is the mean squared sorted-pair error over the set; "
    "dh_deg is the Hausdorff distance (inf marks a detection failure)\n"
    "preset,scale,x_name,x_value,scene_index,mc_index,trial_seed,method,k_true,"
    "truth_deg,k_est,estimates_deg,sq_err_mean,dh_deg,flag\n"
)

# Aggregate columns after n_trials, which are also the keys of the returned aggregates
_AGGREGATE_KEYS = ("rmse_deg", "mean_dh_deg", "max_dh_deg", "n_undefined_dh", "crlb_rmse_deg")


def summarize_trials(entries) -> dict:
    """Summary of (truth, estimates, Hausdorff distance) trials: the RMSE over
    the trials whose estimate count is right, and the mean and max of the
    finite distances with a count of the others; None where no trial counts.
    The aggregate CSV and ``doabench metrics --from-trials`` both use it."""
    matched = [(truth, est) for truth, est, _ in entries if len(est) == len(truth)]
    dhs = np.asarray([dh for _, _, dh in entries if np.isfinite(dh)])
    return {
        "rmse_deg": float(rmse(*zip(*matched))) if matched else None,
        "mean_dh_deg": float(dhs.mean()) if dhs.size else None,
        "max_dh_deg": float(dhs.max()) if dhs.size else None,
        "n_undefined_dh": len(entries) - dhs.size,
    }


def _load_cnn(checkpoint_path, geom: UlaGeometry, grid: GridSpec) -> Network:
    spec, params, metadata = load_checkpoint(checkpoint_path)
    n = geom.n_sensors
    if (
        metadata.get("n_sensors") != n
        or (metadata.get("phi_max_deg"), metadata.get("resolution_deg"))
        != (grid.phi_max_deg, grid.resolution_deg)
        or spec.input_shape != (n, n, 3)
        or spec.output_length != grid.n_points
    ):
        raise ValueError(
            f"checkpoint ({spec.input_shape} inputs, {spec.output_length} outputs, metadata "
            f"{metadata}) does not fit this scale's {n} sensors and {grid.n_points} grid points"
        )
    return Network(spec, params)


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
    Trial rows are written as each block of trials ends, under a ``.partial``
    name that replaces the trials file once the run ends; the other files
    are written at the end. An argument that names no preset or does not
    fit it raises :class:`PresetArgumentError` before any directory is made.
    A method that raises :class:`EstimatorFailure` or :class:`NumericalError`
    on a trial leaves a row with no estimates flagged ``failed:<class name>``,
    and the run goes on.
    """
    if name not in PRESETS:
        raise PresetArgumentError(
            f"unknown preset {name!r}; available presets: {', '.join(preset_names())}"
        )
    try:  # a numpy integer passes, a float does not
        seed = operator.index(seed)
        if snapshots_override is not None:
            snapshots_override = operator.index(snapshots_override)
    except TypeError:
        raise PresetArgumentError(f"the seed and the snapshot count must be integers, got "
                                  f"{seed!r} and {snapshots_override!r}") from None
    if seed < 0:
        raise PresetArgumentError(f"the seed must be non-negative, got {seed}")
    preset = PRESETS[name]
    points = list(preset.points(scale))
    profile = _SCALES[scale].profile
    geom, grid = profile.geom, profile.grid

    if snapshots_override is not None:
        points = [replace(p, t_snapshots=snapshots_override) for p in points]
    if eta_override is not None:
        if "l21svd" not in preset.methods:
            raise PresetArgumentError(
                f"--eta sets the l2,1 noise bound, and preset {name!r} runs no l21svd"
            )
        eta_override = [float(e) for e in np.atleast_1d(np.asarray(eta_override, np.float64))]
        etas = eta_override * len(points) if len(eta_override) == 1 else eta_override
        if len(etas) != len(points):
            raise PresetArgumentError(
                f"--eta needs 1 or {len(points)} values for preset {name!r}, got {len(etas)}"
            )
        points = [replace(p, eta=eta) for p, eta in zip(points, etas)]

    if checkpoint is not None and not any(m.startswith("cnn") for m in preset.methods):
        raise PresetArgumentError(
            f"--checkpoint loads a network, and preset {name!r} runs no cnn method"
        )
    methods = [m for m in preset.methods if checkpoint is not None or not m.startswith("cnn")]
    if not methods:
        raise PresetArgumentError(
            f"preset {name!r} evaluates the network; train one with "
            f"`doabench train --profile {profile.name}` and pass --checkpoint"
        )
    network = None if checkpoint is None else _load_cnn(checkpoint, geom, grid)
    # Each point's bound is formed before any file or trial, so a scene it
    # rejects (no more snapshots than sources) fails before the run starts.
    crlb_values = [
        None if p.crlb_scene is None else float(np.sqrt(np.mean(
            crlb_unconditional(geom, p.crlb_scene, p.t_snapshots) ** 2
        )))
        for p in points
    ]

    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    started = time.time()

    trials_path = out_dir / f"{name}_{scale}_trials.csv"
    # A run that stops leaves its finished blocks here and an earlier run's
    # complete trials file untouched.
    partial_path = out_dir / f"{trials_path.name}.partial"
    aggregate_rows, aggregates = [], {}
    counts = []  # (true, estimated) source counts of the cnn-threshold rows
    trial_index = 0
    with open(partial_path, "w") as trials_file:
        trials_file.write(_TRIALS_HEAD)
        for point, crlb_value in zip(points, crlb_values):
            x_text = repr(float(point.x_value))
            # each scene's truth, as the CSV writes it, and sorted for sq_err_mean
            truths = [(s.doas_deg, _format_angles(s.doas_deg), np.sort(s.doas_deg))
                      for s in point.scenes]
            draws = [(i, s, j) for i, s in enumerate(point.scenes)
                     for j in range(point.mc_per_scene)]
            # (truth, estimates, Hausdorff distance) of the point's trials, per method
            entries = {m: [] for m in methods}
            for start in range(0, len(draws), _FORWARD_BATCH):
                # The methods that read the snapshots run at once, so a block
                # keeps only each trial's covariance and their results.
                block = []
                for scene_index, scene, mc_index in draws[start : start + _FORWARD_BATCH]:
                    trial_seed = seed ^ trial_index
                    trial_index += 1
                    y = simulate_snapshots(geom, scene, point.t_snapshots, trial_seed)
                    trial = _Trial(geom, grid, point, scene.n_sources, y, sample_covariance(y),
                                   None, preset.confidence)
                    done = {m: _run(m, trial) for m in methods if not m.startswith("cnn")}
                    block.append((trial._replace(y=None), done, scene_index,
                                  f"{name},{scale},{preset.x_name},{x_text},"
                                  f"{scene_index},{mc_index},{trial_seed}"))
                probs = [None] * len(block) if network is None else network.forward(
                    build_input_channels(np.stack([trial.cov for trial, *_ in block]))
                )
                rows = []
                for (trial, done, scene_index, row_id), p in zip(block, probs):
                    trial = trial._replace(p=p)
                    truth, truth_text, sorted_truth = truths[scene_index]
                    for method in methods:
                        est, flag = done[method] if method in done else _run(method, trial)
                        dh = hausdorff(truth, est)
                        entries[method].append((truth, est, dh))
                        diff = np.sort(est) - sorted_truth if len(est) == trial.k else None
                        sq_err = "" if diff is None else repr(float(np.mean(diff**2)))
                        dh_text = repr(float(dh)) if np.isfinite(dh) else "inf"
                        rows.append(f"{row_id},{method},{trial.k},{truth_text},{len(est)},"
                                    f"{_format_angles(est)},{sq_err},{dh_text},{flag}\n")
                trials_file.write("".join(rows))

            for method, trials in entries.items():
                agg = aggregates[(point.x_value, method)] = {
                    **summarize_trials(trials), "crlb_rmse_deg": crlb_value,
                }
                aggregate_rows.append(
                    [name, scale, preset.x_name, x_text, method, str(len(trials))]
                    + ["" if agg[key] is None else repr(agg[key]) for key in _AGGREGATE_KEYS]
                )
            counts += [(len(t), len(e)) for t, e, _ in entries.get("cnn-threshold", ())]
    os.replace(partial_path, trials_path)

    aggregate_path = out_dir / f"{name}_{scale}_aggregate.csv"
    _write_csv(
        aggregate_path,
        "# one row per sweep point and method; rmse_deg over trials where "
        "the estimate cardinality matches; crlb_rmse_deg is the rms of the "
        "per-angle standard-deviation bounds",
        ["preset", "scale", "x_name", "x_value", "method", "n_trials", *_AGGREGATE_KEYS],
        aggregate_rows,
    )
    paths = {"trials": str(trials_path), "aggregate": str(aggregate_path)}

    if counts:
        k_display = max(max(k for k, _ in counts), 3)
        matrix = confusion(*zip(*counts), k_display)
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
        "eta_override": eta_override,
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
