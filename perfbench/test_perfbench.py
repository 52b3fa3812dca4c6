"""Tests of the benchmark itself: tracing must not change what the program
computes, every wrapped call point must be put back afterwards, and
BENCHMARK.json must name the metrics the code reports.

Run from the repository root: ``python -m pytest perfbench``.
"""

import json
from pathlib import Path

import numpy as np
import pytest

import run  # puts this checkout's src/ first on the import path
import spans
import workloads
from doabench.presets import run_preset
from doabench.profiles import PROFILES, build_network_spec
from doabench.training import TrainConfig, build_fixed_k_dataset, train

CSV_KINDS = ("trials", "aggregate", "confusion")


def _originals():
    return [(p.owner, p.attr, vars(p.owner)[p.attr]) for p in workloads.probes()]


def _assert_restored(originals):
    for owner, attr, original in originals:
        assert vars(owner)[attr] is original, f"{owner.__name__}.{attr} left wrapped"


def _traced(fn):
    """Run ``fn`` with every probe installed; return its result and the tracer."""
    originals = _originals()
    with spans.Tracer() as tracer:
        assert workloads.install(tracer, workloads.probes()) == []
        assert all(vars(owner)[attr] is not original for owner, attr, original in originals)
        result = fn()
    _assert_restored(originals)
    return result, tracer


def _csv_bytes(result) -> dict:
    return {k: Path(p).read_bytes() for k, p in result["paths"].items() if k in CSV_KINDS}


def test_traced_classical_preset_writes_identical_csvs(tmp_path):
    plain = run_preset("smoke", 4, scale="desk", out_dir=tmp_path / "plain")
    traced, tracer = _traced(
        lambda: run_preset("smoke", 4, scale="desk", out_dir=tmp_path / "traced")
    )
    assert _csv_bytes(plain) == _csv_bytes(traced)
    assert tracer.stat("estimators.l21").calls == traced["n_trials"]
    assert tracer.stat("numerics.eig").calls == 2 * traced["n_trials"]


def test_traced_cnn_eval_writes_identical_csvs(tmp_path):
    plain = workloads.CnnEvalDesk(7, tmp_path / "plain").invoke()
    traced, tracer = _traced(workloads.CnnEvalDesk(7, tmp_path / "traced").invoke)
    assert set(_csv_bytes(plain)) == set(CSV_KINDS)
    assert _csv_bytes(plain) == _csv_bytes(traced)
    assert tracer.stat("training.predict").calls == 2 * traced["n_trials"]


def test_traced_training_is_unchanged():
    profile = PROFILES["small"]
    spec = build_network_spec(profile)
    dataset = build_fixed_k_dataset(profile.grid, profile.geom, 2, (-10.0,))
    config = TrainConfig(batch_size=16, epochs=1, seed=3)
    params, history = train(spec, dataset, config)
    (traced_params, traced_history), tracer = _traced(lambda: train(spec, dataset, config))
    assert traced_history == history
    for block, traced_block in zip(params, traced_params):
        for key in block:
            assert np.array_equal(block[key], traced_block[key])
    assert tracer.stat("nn.conv.fwd").calls > 0 and tracer.stat("nn.adam").calls > 0


def test_probes_are_restored_when_the_run_raises():
    originals = _originals()
    with pytest.raises(ZeroDivisionError):
        with spans.Tracer() as tracer:
            workloads.install(tracer, workloads.probes())
            1 / 0
    _assert_restored(originals)


def test_self_times_add_up_to_the_root_span():
    tracer = spans.Tracer()

    def leaf():
        return sum(range(20000))

    def middle():
        return tracer.call("leaf", leaf) + tracer.call("leaf", leaf)

    tracer.call("root", lambda: tracer.call("middle", middle))
    total_self = sum(s.self_time for s in tracer.stats.values())
    assert tracer.stat("leaf").calls == 2
    assert total_self == pytest.approx(tracer.stat("root").total, rel=1e-9)
    assert tracer.stat("middle").self_time < tracer.stat("middle").total


def test_benchmark_json_names_the_reported_metrics():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == workloads.per_layer_units()
