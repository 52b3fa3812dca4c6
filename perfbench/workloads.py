"""The benchmark's workloads, their output checks, the call points the traced
run wraps, and the per-layer metrics computed from the spans.

Each workload class does its set-up in ``__init__``, runs one pass of the
program in ``invoke`` and checks that pass's outputs in ``check``. A pass is
one ``run_preset`` call for the preset workloads and one ``train()`` call of
``CnnTrainDesk.EPOCHS`` epochs for training.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple

import numpy as np

from doabench import estimators, presets, training
from doabench.nn import init_params, layers, network, save_checkpoint
from doabench.profiles import PROFILES, build_network_spec

REFERENCE_PATH = Path(__file__).with_name("classical_reference.json")

# Aggregates may move by rounding (BLAS thread count, a reordered sum) but
# not by a changed estimate: one moved grid pick out of 58 trials shifts a
# method's RMSE by far more than this.
REFERENCE_REL_TOL = 1e-6
REFERENCE_ABS_TOL = 1e-9

TIME_UNITS = ("ms", "s", "us")


@dataclass
class Outcome:
    """What one pass did and whether its outputs were right."""

    seconds: float  # wall time of the program call
    epochs: int  # units of epoch_s in the pass: 1 for a preset run
    items: int  # units of trials_per_s: trials, or training examples
    attempted: int
    failed: int
    problems: list[str] = field(default_factory=list)


def _read_csv(path) -> list[dict]:
    """Rows of a preset CSV, whose first line is a comment."""
    with open(path, newline="") as fh:
        next(fh)
        return list(csv.DictReader(fh))


def _file_digest(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


class _PresetWorkload:
    """One ``run_preset`` call per pass; an operation is one (trial, method) row."""

    root_span = "presets.run_preset"
    preset: str
    scale = "desk"

    def __init__(self, preset_seed: int, out_dir: Path, checkpoint=None):
        self.preset_seed = preset_seed
        self.out_dir = out_dir
        self.checkpoint = checkpoint
        preset = presets.PRESETS[self.preset]
        self.methods = [
            m for m in preset.methods if checkpoint is not None or not m.startswith("cnn")
        ]
        self.trials_per_k = Counter()
        for point in preset.points(self.scale):
            for scene in point.scenes:
                self.trials_per_k[scene.n_sources] += point.mc_per_scene
        self.rows_per_pass = sum(self.trials_per_k.values()) * len(self.methods)
        self._first_digest = None

    def invoke(self):
        return presets.run_preset(
            self.preset, self.preset_seed, scale=self.scale, out_dir=self.out_dir,
            checkpoint=self.checkpoint,
        )

    def failed_pass(self, seconds: float, reason: str) -> Outcome:
        return Outcome(seconds, 1, 0, self.rows_per_pass, self.rows_per_pass, [reason])

    def check(self, result, seconds: float) -> Outcome:
        rows = _read_csv(result["paths"]["trials"])
        problems = self._check(result, rows)
        if len(rows) != self.rows_per_pass:
            problems.append(f"{len(rows)} trial rows, expected {self.rows_per_pass}")
        # Re-running a preset with the same seed must give the same bytes.
        digest = _file_digest(result["paths"]["trials"])
        if self._first_digest is None:
            self._first_digest = digest
        elif digest != self._first_digest:
            problems.append("trials CSV differs from the first pass with the same seed")
        failed = sum(1 for row in rows if self._row_failed(row))
        if problems:
            failed = self.rows_per_pass
        return Outcome(seconds, 1, result["n_trials"], self.rows_per_pass, failed, problems)

    def _check(self, result, rows) -> list[str]:
        raise NotImplementedError

    def _row_failed(self, row) -> bool:
        return bool(row["flag"])


class ClassicalDesk(_PresetWorkload):
    """``slide-2p11`` at desk scale with music, rmusic and l21svd."""

    def __init__(self, seed: int, work_dir: Path):
        reference = json.loads(REFERENCE_PATH.read_text())
        self.preset = reference["preset"]
        self.scale = reference["scale"]
        # The reference holds the seed commit's aggregates for a fixed set of
        # preset seeds; every benchmark seed maps onto one of them.
        preset_seed = seed % len(reference["values"])
        self.expected = reference["values"][str(preset_seed)]
        super().__init__(preset_seed, work_dir)

    def _row_failed(self, row) -> bool:
        return bool(row["flag"]) or row["dh_deg"] == "inf"

    def _check(self, result, rows) -> list[str]:
        problems = []
        short = sum(1 for row in rows if row["k_est"] != row["k_true"])
        if short:
            problems.append(f"{short} rows do not have K estimates")
        got = {method: agg for (_, method), agg in result["aggregates"].items()}
        for method in self.methods:
            for key in ("rmse_deg", "mean_dh_deg"):
                value = got.get(method, {}).get(key)
                ref = self.expected[method][key]
                if value is None or not math.isclose(
                    value, ref, rel_tol=REFERENCE_REL_TOL, abs_tol=REFERENCE_ABS_TOL
                ):
                    problems.append(f"{method} {key} {value!r} != reference {ref!r}")
        return problems


class CnnEvalDesk(_PresetWorkload):
    """``mixed-k-fixed-0db`` at desk scale with an initialised, untrained network."""

    preset = "mixed-k-fixed-0db"

    def __init__(self, seed: int, work_dir: Path):
        profile = PROFILES["small"]
        spec = build_network_spec(profile)
        params = init_params(spec, np.random.default_rng(seed))
        work_dir.mkdir(parents=True, exist_ok=True)
        checkpoint = work_dir / "init.doac"
        save_checkpoint(checkpoint, spec, params, {
            "profile": profile.name,
            "n_sensors": profile.geom.n_sensors,
            "spacing_ratio": profile.geom.spacing_ratio,
            "phi_max_deg": profile.grid.phi_max_deg,
            "resolution_deg": profile.grid.resolution_deg,
            "seed": seed,
        })
        super().__init__(seed, work_dir, checkpoint)

    def _check(self, result, rows) -> list[str]:
        problems = []
        short = sum(
            1 for row in rows if row["method"] == "cnn-topk" and row["k_est"] != row["k_true"]
        )
        if short:
            problems.append(f"{short} cnn-topk rows do not have K estimates")
        for row in _read_csv(result["paths"]["confusion"]):
            k = int(row["k_true"])
            total = sum(int(v) for key, v in row.items() if key.startswith("pred_"))
            if total != self.trials_per_k[k]:
                problems.append(
                    f"confusion row K={k} sums to {total}, expected {self.trials_per_k[k]}"
                )
        return problems


class CnnTrainDesk:
    """``train()`` on the small profile's fixed-K dataset; an operation is one epoch."""

    root_span = "training.train"
    EPOCHS = 2

    def __init__(self, seed: int, work_dir: Path):
        profile = PROFILES["small"]
        self.spec = build_network_spec(profile)
        self.dataset = training.build_fixed_k_dataset(
            profile.grid, profile.geom, profile.fixed_k, profile.fixed_snrs_db
        )
        # The acceptance gate's desk training configuration, for fewer epochs.
        self.config = training.TrainConfig(
            batch_size=16, epochs=self.EPOCHS, lr_halving_period_epochs=25, seed=seed
        )
        self._first_history = None

    def invoke(self):
        return training.train(self.spec, self.dataset, self.config)

    def failed_pass(self, seconds: float, reason: str) -> Outcome:
        return Outcome(seconds, self.EPOCHS, 0, self.EPOCHS, self.EPOCHS, [reason])

    def check(self, result, seconds: float) -> Outcome:
        _, history = result
        problems = []
        losses = history.train_loss + history.val_loss
        if len(history.train_loss) != self.EPOCHS or len(history.val_loss) != self.EPOCHS:
            problems.append(f"history has {len(history.train_loss)} epochs, expected {self.EPOCHS}")
        if not all(math.isfinite(v) for v in losses):
            problems.append(f"non-finite loss in {losses}")
        # Training is deterministic in the seed.
        if self._first_history is None:
            self._first_history = history
        elif history != self._first_history:
            problems.append("losses differ from the first pass with the same seed")
        failed = self.EPOCHS if problems else 0
        return Outcome(
            seconds, self.EPOCHS, len(self.dataset) * self.EPOCHS, self.EPOCHS, failed, problems
        )


WORKLOADS = {
    "classical-desk": ClassicalDesk,
    "cnn-train-desk": CnnTrainDesk,
    "cnn-eval-desk": CnnEvalDesk,
}


# ---------------------------------------------------------------------------
# Traced runs: call points and per-layer metrics
# ---------------------------------------------------------------------------


class Probe(NamedTuple):
    owner: object  # module or class whose attribute is replaced
    attr: str
    span: object  # span name, or a function of (args, kwargs) returning it
    keep: bool = False
    extract: object = None


def _forward_span(args, kwargs) -> str:
    # Network.forward(self, x, train=False, rng=None)
    train = kwargs.get("train", args[2] if len(args) > 2 else False)
    return "nn.network.forward_train" if train else "nn.network.forward_eval"


def probes() -> list[Probe]:
    """Every call point a traced run wraps, named by the module it measures."""
    points = [
        Probe(presets, "simulate_snapshots", "arraymodel.simulate", keep=True),
        Probe(presets, "sample_covariance", "arraymodel.sample_cov"),
        Probe(presets, "build_input_channels", "arraymodel.input_channels"),
        Probe(presets, "music_spectrum", "estimators.music_spectrum"),
        Probe(presets, "pick_peaks", "estimators.pick_peaks"),
        Probe(presets, "root_music", "estimators.root_music"),
        Probe(presets, "l21_svd", "estimators.l21", keep=True,
              extract=lambda r: (r.n_iter, r.converged)),
        Probe(presets, "predict_topk", "training.predict"),
        Probe(presets, "predict_threshold", "training.predict"),
        Probe(presets, "hausdorff", "metrics.hausdorff", keep=True),
        Probe(presets, "rmse", "metrics.rmse"),
        Probe(presets, "confusion", "metrics.confusion"),
        Probe(presets, "crlb_unconditional", "crlb.unconditional"),
        Probe(presets, "load_checkpoint", "nn.load_checkpoint"),
        Probe(presets, "_write_csv", "presets.write_csv"),
        Probe(estimators, "hermitian_eig", "numerics.eig"),
        Probe(estimators, "complex_svd", "numerics.svd"),
        Probe(estimators, "polynomial_roots", "numerics.roots"),
        Probe(estimators, "manifold", "arraymodel.manifold"),
        Probe(training.Dataset, "batch", "training.batch"),
        Probe(training, "_mean_loss", "training.val"),
        Probe(training, "bce_loss", "nn.bce"),
        Probe(training, "adam_step", "nn.adam"),
        Probe(training, "init_params", "nn.init_params"),
        Probe(training, "init_adam_state", "nn.init_adam"),
        Probe(network.Network, "__init__", "nn.network.build"),
        Probe(network.Network, "forward", _forward_span),
        Probe(network.Network, "backward_from_logits", "nn.network.backward"),
    ]
    for cls, kind in (
        (layers.ConvLayer, "conv"),
        (layers.BatchNormLayer, "batchnorm"),
        (layers.DenseLayer, "dense"),
        (layers.ReluLayer, "pointwise"),
        (layers.DropoutLayer, "pointwise"),
        (layers.FlattenLayer, "pointwise"),
        (layers.SigmoidLayer, "pointwise"),
    ):
        points.append(Probe(cls, "forward", f"nn.{kind}.fwd"))
        points.append(Probe(cls, "backward", f"nn.{kind}.bwd"))
    return points


def install(tracer, points) -> list[str]:
    """Wrap every call point that exists; return the names of those that do
    not, whose time then counts to the span that calls them."""
    missing = []
    for p in points:
        if p.attr in vars(p.owner):
            tracer.wrap(p.owner, p.attr, p.span, keep=p.keep, extract=p.extract)
        else:
            missing.append(f"{p.owner.__name__}.{p.attr}")
    return missing


# Units of the per-layer metrics; every time metric also has a
# ``<name>.blas1_delta``: its value at one BLAS thread minus its value at the
# default thread count.
LAYER_UNITS = {
    "estimators.l21_ms_p50": "ms",
    "estimators.l21_ms_p90": "ms",
    "estimators.l21_samples": "count",
    "estimators.l21_iters_mean": "count",
    "estimators.l21_iter_us": "us",
    "estimators.l21_nonconverged": "count",
    "estimators.music_ms": "ms",
    "estimators.rmusic_ms": "ms",
    "numerics.eig_ms": "ms",
    "numerics.eig_calls": "count",
    "numerics.svd_ms": "ms",
    "numerics.roots_ms": "ms",
    "arraymodel.simulate_ms": "ms",
    "arraymodel.sample_cov_ms": "ms",
    "training.predict_ms": "ms",
    "nn.eval_forward_ms": "ms",
    "presets.runner_self_s": "s",
    "presets.trial_ms_p50": "ms",
    "presets.trial_ms_p90": "ms",
    "presets.trial_samples": "count",
    "nn.conv.fwd_s": "s",
    "nn.conv.bwd_s": "s",
    "nn.batchnorm.fwd_s": "s",
    "nn.batchnorm.bwd_s": "s",
    "nn.dense.fwd_s": "s",
    "nn.dense.bwd_s": "s",
    "nn.pointwise.fwd_s": "s",
    "nn.pointwise.bwd_s": "s",
    "nn.bce_s": "s",
    "nn.adam_s": "s",
    "nn.adam_calls": "count",
    "training.batch_s": "s",
    "training.val_s": "s",
    "training.loop_self_s": "s",
    "traced_epoch_s": "s",
    "coverage": "ratio",
    "trace_overhead": "ratio",
}


def per_layer_units() -> dict[str, str]:
    units = dict(LAYER_UNITS)
    for name, unit in LAYER_UNITS.items():
        if unit in TIME_UNITS:
            units[f"{name}.blas1_delta"] = unit
    return units


def _percentile(values, q) -> float:
    return float(np.percentile(values, q)) if values else 0.0


def _trial_ms(tracer) -> list[float]:
    """Per-trial wall times: from a trial's snapshot simulation to the end of
    its last Hausdorff distance, the final step of every method row."""
    starts = sorted(s for s, _, _ in tracer.stat("arraymodel.simulate").samples)
    ends = sorted(s + d for s, d, _ in tracer.stat("metrics.hausdorff").samples)
    durations = []
    j = 0
    for i, start in enumerate(starts):
        stop = starts[i + 1] if i + 1 < len(starts) else math.inf
        last = None
        while j < len(ends) and ends[j] < stop:
            if ends[j] >= start:
                last = ends[j]
            j += 1
        if last is not None:
            durations.append(1e3 * (last - start))
    return durations


def layer_metrics(tracer, root_span: str, epochs: int, untraced_epoch_s=None) -> dict[str, float]:
    """Per-layer metrics from one traced phase of ``epochs`` passes' worth of
    work (seconds are per epoch_s unit; ms are per call)."""
    st = tracer.stat

    def ms_per_call(*names):
        """Milliseconds per call of the first span, counting all the spans."""
        calls = st(names[0]).calls
        return 1e3 * sum(st(n).total for n in names) / calls if calls else 0.0

    def self_s(*names):
        return sum(st(n).self_time for n in names) / epochs

    l21 = st("estimators.l21")
    l21_ms = [1e3 * d for _, d, _ in l21.samples]
    iters = [r[0] for _, _, r in l21.samples]
    trials = st("arraymodel.simulate").calls
    trial_ms = _trial_ms(tracer)
    root = st(root_span)
    layer_self = sum(s.self_time for name, s in tracer.stats.items() if name != root_span)
    metrics = {
        "estimators.l21_ms_p50": _percentile(l21_ms, 50),
        "estimators.l21_ms_p90": _percentile(l21_ms, 90),
        "estimators.l21_samples": len(l21_ms),
        "estimators.l21_iters_mean": float(np.mean(iters)) if iters else 0.0,
        "estimators.l21_iter_us": 1e6 * l21.self_time / sum(iters) if iters else 0.0,
        "estimators.l21_nonconverged": sum(1 for _, _, r in l21.samples if not r[1]) / epochs,
        "estimators.music_ms": ms_per_call("estimators.music_spectrum", "estimators.pick_peaks"),
        "estimators.rmusic_ms": ms_per_call("estimators.root_music"),
        "numerics.eig_ms": ms_per_call("numerics.eig"),
        "numerics.eig_calls": st("numerics.eig").calls / trials if trials else 0.0,
        "numerics.svd_ms": ms_per_call("numerics.svd"),
        "numerics.roots_ms": ms_per_call("numerics.roots"),
        "arraymodel.simulate_ms": ms_per_call("arraymodel.simulate"),
        "arraymodel.sample_cov_ms": ms_per_call("arraymodel.sample_cov"),
        "training.predict_ms": ms_per_call("training.predict"),
        "nn.eval_forward_ms": ms_per_call("nn.network.forward_eval"),
        "presets.runner_self_s": self_s("presets.run_preset"),
        "presets.trial_ms_p50": _percentile(trial_ms, 50),
        "presets.trial_ms_p90": _percentile(trial_ms, 90),
        "presets.trial_samples": len(trial_ms),
    }
    for kind in ("conv", "batchnorm", "dense", "pointwise"):
        metrics[f"nn.{kind}.fwd_s"] = self_s(f"nn.{kind}.fwd")
        metrics[f"nn.{kind}.bwd_s"] = self_s(f"nn.{kind}.bwd")
    metrics.update({
        "nn.bce_s": self_s("nn.bce"),
        "nn.adam_s": self_s("nn.adam"),
        "nn.adam_calls": st("nn.adam").calls / epochs,
        "training.batch_s": st("training.batch").total / epochs,
        "training.val_s": st("training.val").total / epochs,
        "training.loop_self_s": self_s("training.train"),
        "traced_epoch_s": root.total / epochs,
        "coverage": layer_self / root.total if root.total else 0.0,
    })
    if untraced_epoch_s:
        metrics["trace_overhead"] = metrics["traced_epoch_s"] / untraced_epoch_s - 1.0
    return metrics
