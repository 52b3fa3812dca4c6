"""CLI surface and preset-runner contracts: output formats, exit codes,
overrides and byte-level reproducibility."""

import csv
import hashlib
import json
import math
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from doabench import cli as cli_module
from doabench import presets
from doabench.arraymodel import (
    GridSpec,
    SourceScene,
    UlaGeometry,
    load_snapshots,
    simulate_snapshots,
)
from doabench.cli import cli
from doabench.estimators import EstimatorFailure
from doabench.metrics import rmse
from doabench.nn import Network, init_params, save_checkpoint
from doabench.numerics import NumericalError
from doabench.presets import _METHODS, PRESETS, preset_names, run_preset
from doabench.profiles import PROFILES, build_network_spec


class TestSpecCheck:
    def test_paper_profile_numbers(self, capsys):
        assert cli(["spec-check", "--profile", "paper"]) == 0
        out = capsys.readouterr().out
        assert "28,190,585" in out
        assert "7,260" in out
        assert "36,300" in out
        assert "295,361" in out
        assert "16 -> 7 -> 6 -> 5 -> 4" in out
        assert "4096" in out
        assert "layer count: 24" in out

    def test_small_profile_valid(self, capsys):
        assert cli(["spec-check", "--profile", "small"]) == 0
        out = capsys.readouterr().out
        assert "85,933" in out
        assert "8 -> 6 -> 5 -> 4 -> 3" in out


class TestMetricsCommand:
    def test_hausdorff_worked_sets(self, capsys):
        # leading '-' in the value requires the --flag=value form
        cases = [
            ("-30,20,23", 0.2),
            ("-30,21", 1.83),
            ("-30,51", 30.85),
        ]
        for set_a, expected in cases:
            assert cli([
                "metrics", "--hausdorff", f"--set-a={set_a}",
                "--set-b=-30.2,20.15,22.83",
            ]) == 0
            value = float(capsys.readouterr().out.strip())
            assert abs(value - expected) < 1e-9

    def test_rmse_worked_set(self, capsys):
        assert cli([
            "metrics", "--rmse", "--set-a=-30,20,23",
            "--set-b=-30.2,20.15,22.83",
        ]) == 0
        value = float(capsys.readouterr().out.strip())
        assert abs(value - np.sqrt((0.2**2 + 0.15**2 + 0.17**2) / 3)) < 1e-9

    def test_requires_sets_or_file(self, capsys):
        assert cli(["metrics", "--rmse"]) == 1


class TestUsageErrors:
    def test_missing_required_flag(self, capsys):
        assert cli(["simulate", "--n", "4"]) == 1
        assert "usage" in capsys.readouterr().err.lower()

    def test_unknown_preset_lists_available(self, capsys):
        assert cli(["eval", "--preset", "nope"]) == 1
        err = capsys.readouterr().err
        for name in preset_names():
            assert name in err

    @pytest.mark.parametrize("argv, message", [
        (["--preset", "smoke", "--eta", "1,2,3"], "--eta needs 1 or 2 values"),
        (["--preset", "smoke", "--eta", "nan"], "eta must be a non-negative number, got nan"),
        (["--preset", "smoke", "--eta=-1"], "eta must be a non-negative number, got -1.0"),
        (["--preset", "mixed-k-fixed-0db"], "pass --checkpoint"),
        # smoke runs only classical methods, so no method would open the file.
        (["--preset", "smoke", "--checkpoint", "missing.doac"], "runs no cnn method"),
    ], ids=["eta-count", "nan-eta", "negative-eta", "cnn-preset-without-checkpoint",
            "checkpoint-without-cnn-method"])
    def test_preset_arguments_that_do_not_fit(self, tmp_path, capsys, argv, message):
        out = tmp_path / "out"
        assert cli(["eval", *argv, "--out", str(out)]) == 1
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_bad_angle_list(self, capsys):
        assert cli(["metrics", "--rmse", "--set-a", "abc", "--set-b", "1"]) == 1

    def test_non_integer_snapshot_count(self, capsys):
        rc = cli(["crlb", "--n", "16", "--doas", "10.11,13.3", "--snr-db", "0",
                  "--snapshots", "1000,1000.7"])
        assert rc == 1
        assert "list of integers" in capsys.readouterr().err

    def test_negative_k_display(self, tmp_path, capsys):
        path = tmp_path / "trials.csv"
        path.write_text("\n".join([
            "# one trial", "method,truth_deg,estimates_deg", "music,9.7,9.5",
        ]) + "\n")
        args = ["metrics", "--confusion", "--from-trials", str(path), "--k-display"]
        assert cli([*args, "-1"]) == 1
        assert "non-negative integer" in capsys.readouterr().err
        assert cli([*args, "1"]) == 0
        assert capsys.readouterr().out == "0,0\n0,1\n"

    def test_snr_db_with_fixed_regime(self, tmp_path, capsys, monkeypatch):
        def no_dataset(*args):
            raise AssertionError("a dataset was built")

        monkeypatch.setattr(cli_module, "build_fixed_k_dataset", no_dataset)
        out = tmp_path / "model.doac"
        rc = cli(["train", "--profile", "small", "--regime", "fixed", "--snr-db", "30",
                  "--out", str(out)])
        assert rc == 1
        assert "--snr-db" in capsys.readouterr().err
        assert not out.exists()

    def test_mixed_snr_below_float_range(self, tmp_path, capsys):
        out = tmp_path / "model.doac"
        rc = cli(["train", "--profile", "small", "--regime", "mixed", "--snr-db=-4000",
                  "--epochs", "1", "--out", str(out)])
        assert rc == 2
        stdout, err = capsys.readouterr()
        assert stdout == ""
        assert err.startswith("error: ") and "-4000" in err
        assert not out.exists()

    @pytest.mark.parametrize("snr", ["-inf", "nan"])
    def test_mixed_snr_without_finite_noise_power(self, tmp_path, capsys, snr):
        # Fails before a dataset is built, not after an epoch on NaN inputs.
        out = tmp_path / "model.doac"
        rc = cli(["train", "--profile", "small", "--regime", "mixed", f"--snr-db={snr}",
                  "--epochs", "1", "--out", str(out)])
        assert rc == 2
        stdout, err = capsys.readouterr()
        assert stdout == ""
        assert err.startswith("error: ") and f"for {snr} dB SNR" in err
        assert not out.exists()

    @pytest.mark.parametrize("command", [
        ["simulate", "--n", "8", "--doas", "5", "--noise-power", "1", "--snapshots", "10"],
        ["train", "--profile", "small"],
        ["eval", "--preset", "smoke"],
    ], ids=["simulate", "train", "eval"])
    def test_negative_seed(self, tmp_path, capsys, monkeypatch, command):
        def no_dataset(*args):
            raise AssertionError("a dataset was built")

        monkeypatch.setattr(cli_module, "build_fixed_k_dataset", no_dataset)
        out = tmp_path / "out"
        assert cli([*command, "--seed=-1", "--out", str(out)]) == 1
        assert "argument --seed: expected a non-negative integer" in capsys.readouterr().err
        assert not out.exists()


    @pytest.mark.parametrize("value", ["0", "-1"])
    @pytest.mark.parametrize("command", [
        ["simulate", "--n", "8", "--doas", "5", "--noise-power", "1", "--snapshots={}"],
        ["train", "--profile", "small", "--epochs={}"],
        ["eval", "--preset", "smoke", "--snapshots={}"],
    ], ids=["simulate-snapshots", "train-epochs", "eval-snapshots"])
    def test_counts_must_be_positive(self, tmp_path, capsys, monkeypatch, command, value):
        def no_dataset(*args):
            raise AssertionError("a dataset was built")

        monkeypatch.setattr(cli_module, "build_fixed_k_dataset", no_dataset)
        out = tmp_path / "out"
        argv = [arg.format(value) for arg in command]
        assert cli([*argv, "--out", str(out)]) == 1
        assert f"expected a positive integer, got '{value}'" in capsys.readouterr().err
        assert not out.exists()


class TestSimulateCommand:
    def test_writes_loadable_block(self, tmp_path, capsys):
        out = tmp_path / "run.doas"
        rc = cli([
            "simulate", "--n", "8", "--doas", "5,-12", "--noise-power", "2.0",
            "--snapshots", "33", "--seed", "7", "--out", str(out),
        ])
        assert rc == 0
        expected = simulate_snapshots(
            UlaGeometry(8, 0.5), SourceScene((5.0, -12.0), (1.0, 1.0), 2.0), 33, 7
        )
        assert np.array_equal(load_snapshots(out), expected)

    def test_nan_noise_power_writes_nothing(self, tmp_path, capsys):
        out = tmp_path / "run.doas"
        rc = cli(["simulate", "--n", "8", "--doas", "5", "--noise-power", "nan",
                  "--snapshots", "33", "--out", str(out)])
        assert rc == 2
        assert "noise power" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("power", [["--noise-power", "inf"], ["--powers", "1,inf"]],
                             ids=["noise", "source"])
    def test_infinite_power_writes_nothing(self, tmp_path, capsys, power):
        out = tmp_path / "run.doas"
        args = ["simulate", "--n", "8", "--doas", "5,-12", "--noise-power", "1",
                "--snapshots", "33", "--out", str(out)]
        rc = cli(args + power)
        assert rc == 2
        assert "finite" in capsys.readouterr().err
        assert not out.exists()


class TestCrlbCommand:
    def test_table_and_scaling(self, capsys):
        rc = cli([
            "crlb", "--n", "16", "--doas", "10.11,13.3", "--snr-db", "0",
            "--snapshots", "1000,4000",
        ])
        assert rc == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0].startswith("snapshots,")
        row1 = [float(v) for v in lines[1].split(",")]
        row4 = [float(v) for v in lines[2].split(",")]
        np.testing.assert_allclose(np.array(row4[1:]) / np.array(row1[1:]), 0.5, rtol=1e-6)

    def test_singular_fisher_information_exits_2(self, capsys):
        # Coincident sources leave the Fisher information singular.
        rc = cli([
            "crlb", "--n", "4", "--doas", "10,10.0000000000001", "--noise-power", "1",
            "--snapshots", "100",
        ])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_infinite_noise_prints_no_table(self, capsys):
        rc = cli(["crlb", "--n", "8", "--doas", "10", "--snr-db=-inf", "--snapshots", "100"])
        assert rc == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "noise power must be a finite non-negative number" in err

    def test_snr_below_float_range_prints_no_table(self, capsys):
        # 10 ** 400 overflows a float: a runtime error naming the SNR, no traceback.
        rc = cli(["crlb", "--n", "8", "--doas", "10", "--snr-db=-4000", "--snapshots", "100"])
        assert rc == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: ") and "-4000" in err

    @pytest.mark.parametrize("snapshots", ["0", "1000,1"])
    def test_failure_prints_no_table(self, capsys, snapshots):
        rc = cli(["crlb", "--n", "16", "--doas", "10.11,13.3", "--snr-db", "0",
                  "--snapshots", snapshots])
        assert rc == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: need more snapshots than sources\n"


class TestPresetRunner:
    def test_smoke_outputs_and_determinism(self, tmp_path, capsys):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        s1 = run_preset("smoke", seed=3, scale="desk", out_dir=out1)
        s2 = run_preset("smoke", seed=3, scale="desk", out_dir=out2)
        for kind in ("trials", "aggregate"):
            b1 = Path(s1["paths"][kind]).read_bytes()
            b2 = Path(s2["paths"][kind]).read_bytes()
            assert b1 == b2
        manifest = json.loads(Path(s1["paths"]["manifest"]).read_text())
        assert manifest["preset"] == "smoke" and manifest["seed"] == 3
        # 2 sweep points x 1 scene x 3 Monte-Carlo trials
        assert s1["n_trials"] == 6

    def test_smoke_seed_changes_output(self, tmp_path):
        s1 = run_preset("smoke", seed=3, scale="desk", out_dir=tmp_path / "a")
        s2 = run_preset("smoke", seed=4, scale="desk", out_dir=tmp_path / "b")
        trials = [Path(s["paths"]["trials"]).read_text() for s in (s1, s2)]
        assert trials[0] != trials[1]

    def test_aggregate_format(self, tmp_path):
        summary = run_preset("smoke", seed=0, scale="desk", out_dir=tmp_path)
        lines = Path(summary["paths"]["aggregate"]).read_text().splitlines()
        assert lines[0].startswith("#")
        header = lines[1].split(",")
        assert header == [
            "preset", "scale", "x_name", "x_value", "method", "n_trials",
            "rmse_deg", "mean_dh_deg", "max_dh_deg", "n_undefined_dh",
            "crlb_rmse_deg",
        ]
        # 2 sweep points x 3 classical methods
        assert len(lines) == 2 + 6
        for line in lines[2:]:
            row = dict(zip(header, line.split(",")))
            assert row["method"] in ("music", "rmusic", "l21svd")
            assert float(row["rmse_deg"]) >= 0.0
            assert float(row["crlb_rmse_deg"]) > 0.0

    def test_trials_format(self, tmp_path):
        summary = run_preset("smoke", seed=0, scale="desk", out_dir=tmp_path)
        lines = Path(summary["paths"]["trials"]).read_text().splitlines()
        header = lines[1].split(",")
        assert header[:4] == ["preset", "scale", "x_name", "x_value"]
        rows = [dict(zip(header, line.split(","))) for line in lines[2:]]
        assert len(rows) == 6 * 3  # trials x methods
        seeds = {int(r["trial_seed"]) for r in rows}
        assert seeds == {0 ^ t for t in range(6)}
        for r in rows:
            truth = [float(v) for v in r["truth_deg"].split(";")]
            assert truth == [-10.4, 9.7]
            assert int(r["k_est"]) == 2

    def test_snapshots_override(self, tmp_path):
        summary = run_preset(
            "smoke", seed=0, scale="desk", out_dir=tmp_path, snapshots_override=64
        )
        manifest = json.loads(Path(summary["paths"]["manifest"]).read_text())
        assert manifest["snapshots_override"] == 64

    def test_integer_overrides_are_recorded_as_numbers(self, tmp_path):
        # The desk smoke bounds themselves, as integers: tighter bounds make
        # the l2,1 solves run to their iteration cap.
        ints = run_preset("smoke", seed=1, scale="desk", out_dir=tmp_path / "i",
                          eta_override=[57, 18], snapshots_override=np.int64(200))
        floats = run_preset("smoke", seed=1, scale="desk", out_dir=tmp_path / "f",
                            eta_override=[57.0, 18.0], snapshots_override=200)
        manifest = json.loads(Path(ints["paths"]["manifest"]).read_text())
        assert manifest["eta_override"] == [57.0, 18.0]
        assert all(isinstance(v, float) for v in manifest["eta_override"])
        assert manifest["snapshots_override"] == 200
        trials = [Path(s["paths"]["trials"]).read_text() for s in (ints, floats)]
        assert trials[0] == trials[1]
        single = run_preset("smoke", seed=1, scale="desk", out_dir=tmp_path / "s", eta_override=18)
        assert json.loads(Path(single["paths"]["manifest"]).read_text())["eta_override"] == [18.0]

    def test_eta_override_validation(self, tmp_path):
        with pytest.raises(ValueError):
            run_preset("smoke", seed=0, scale="desk", out_dir=tmp_path,
                       eta_override=[1.0, 2.0, 3.0])

    @pytest.mark.parametrize(
        "override, match",
        [({"eta_override": float("nan")}, "eta"), ({"eta_override": [57.0, -1.0]}, "eta"),
         ({"snapshots_override": 0}, "snapshot"), ({"seed": -1}, "seed"),
         ({"seed": 3.5}, "integers"), ({"snapshots_override": 200.7}, "integers")],
        ids=["nan-eta", "negative-eta", "zero-snapshots", "negative-seed", "float-seed",
             "float-snapshots"],
    )
    def test_bad_override_fails_before_any_file(self, tmp_path, override, match):
        out = tmp_path / "out"
        with pytest.raises(presets.PresetArgumentError, match=match):
            run_preset("smoke", scale="desk", out_dir=out, **{"seed": 0, **override})
        assert not out.exists()

    def test_numpy_integers_are_a_seed_and_a_snapshot_count(self, tmp_path):
        plain = run_preset("smoke", seed=3, scale="desk", out_dir=tmp_path / "a",
                           snapshots_override=100)
        numpy = run_preset("smoke", seed=np.int64(3), scale="desk", out_dir=tmp_path / "b",
                           snapshots_override=np.uint16(100))
        for kind in ("trials", "aggregate"):
            assert Path(numpy["paths"][kind]).read_bytes() == Path(
                plain["paths"][kind]).read_bytes()
        manifest = json.loads(Path(numpy["paths"]["manifest"]).read_text())
        assert (manifest["seed"], manifest["snapshots_override"]) == (3, 100)

    def test_eta_needs_a_preset_with_l21svd(self, tmp_path, capsys):
        # mixed-k-fixed-0db runs only the network methods, which read no
        # noise bound, so --eta would change nothing but the manifest.
        out = tmp_path / "out"
        with pytest.raises(ValueError, match="runs no l21svd"):
            run_preset("mixed-k-fixed-0db", seed=0, scale="desk", out_dir=out,
                       checkpoint=_init_checkpoint(tmp_path), eta_override=5.0)
        assert not out.exists()
        assert cli(["eval", "--preset", "mixed-k-fixed-0db", "--eta", "5",
                    "--checkpoint", str(tmp_path / "init.doac"), "--out", str(out)]) == 1
        assert "runs no l21svd" in capsys.readouterr().err
        assert not out.exists()

    def test_crlb_failure_comes_before_any_directory_or_trial(self, tmp_path, capsys,
                                                             monkeypatch):
        # smoke's two-source CRB scenes need more than one snapshot.
        simulated = []
        monkeypatch.setattr(presets, "simulate_snapshots",
                            lambda *args: simulated.append(args))
        out = tmp_path / "out"
        with pytest.raises(ValueError, match="more snapshots than sources"):
            run_preset("smoke", seed=0, scale="desk", out_dir=out, snapshots_override=1)
        assert cli(["eval", "--preset", "smoke", "--snapshots", "1", "--out", str(out)]) == 2
        assert "more snapshots than sources" in capsys.readouterr().err
        assert not out.exists()
        assert simulated == []

    def test_cnn_preset_requires_checkpoint(self, tmp_path):
        with pytest.raises(ValueError, match="doabench train"):
            run_preset("mixed-k-fixed-0db", seed=0, scale="desk", out_dir=tmp_path)

    def test_classical_methods_survive_missing_checkpoint(self, tmp_path):
        # presets that mix classical and network methods degrade gracefully
        summary = run_preset(
            "slide-2p11", seed=0, scale="desk", out_dir=tmp_path,
            snapshots_override=32,
        )
        manifest = json.loads(Path(summary["paths"]["manifest"]).read_text())
        assert manifest["methods"] == ["music", "rmusic", "l21svd"]

    def test_every_preset_has_both_scales(self):
        for preset in PRESETS.values():
            assert preset.points("full") and preset.points("desk")
            for scale in ("full", "desk"):
                for point in preset.points(scale):
                    assert point.mc_per_scene >= 1
                    assert point.t_snapshots >= 1
                    assert all(
                        abs(a) < 90.0 for s in point.scenes for a in s.doas_deg
                    )

    def test_every_preset_method_has_an_entry(self):
        for name, preset in PRESETS.items():
            assert set(preset.methods) <= set(_METHODS), name

    def test_preset_points_are_pinned(self):
        # Every point of every preset at both scales, in a canonical text form
        def scene(s):
            return "None" if s is None else f"{s.doas_deg!r} {s.source_powers!r} {s.noise_power!r}"

        lines = [
            f"{name} {scale} {p.x_value!r} {p.t_snapshots} {float(p.eta)!r} "
            f"{p.mc_per_scene} crlb={scene(p.crlb_scene)} "
            + " | ".join(scene(s) for s in p.scenes)
            for name in sorted(PRESETS)
            for scale in ("full", "desk")
            for p in PRESETS[name].points(scale)
        ]
        digest = hashlib.sha256(("\n".join(lines) + "\n").encode()).hexdigest()
        assert len(lines) == 90
        assert digest == "950241ede7a975480650712d6020bfba9883061da4c11848ae338f2aa0b88fa7"
        for preset in PRESETS.values():
            for scale in ("full", "desk"):
                assert all(type(p.eta) is float for p in preset.points(scale))

    def test_unknown_scale(self):
        with pytest.raises(ValueError, match="unknown scale"):
            PRESETS["smoke"].points("huge")

    @pytest.mark.parametrize("preset", ["smoke", "mixed-k-fixed-0db"])
    def test_aggregates_match_trials(self, tmp_path, preset):
        kwargs = {}
        if preset != "smoke":
            kwargs = {"checkpoint": _init_checkpoint(tmp_path), "snapshots_override": 50}
        summary = run_preset(preset, seed=3, scale="desk", out_dir=tmp_path, **kwargs)
        trials = _read_rows(summary["paths"]["trials"])
        groups = {}
        for row in trials:
            groups.setdefault((row["x_value"], row["method"]), []).append(row)
        aggregate = _read_rows(summary["paths"]["aggregate"])
        assert [(row["x_value"], row["method"]) for row in aggregate] == list(groups)
        for row in aggregate:
            rows = groups[(row["x_value"], row["method"])]
            matched = [r for r in rows if r["k_est"] == r["k_true"]]
            dh = np.array([float(r["dh_deg"]) for r in rows if r["dh_deg"] != "inf"])
            expected = {
                "n_trials": str(len(rows)),
                "rmse_deg": repr(rmse([_angles(r["truth_deg"]) for r in matched],
                                      [_angles(r["estimates_deg"]) for r in matched]))
                if matched else "",
                "mean_dh_deg": repr(float(dh.mean())) if dh.size else "",
                "max_dh_deg": repr(float(dh.max())) if dh.size else "",
                "n_undefined_dh": str(len(rows) - dh.size),
            }
            assert {key: row[key] for key in expected} == expected
            returned = summary["aggregates"][(float(row["x_value"]), row["method"])]
            assert {key: "" if v is None else repr(v) for key, v in returned.items()} == {
                key: row[key] for key in returned
            }

        counts = Counter(
            (int(r["k_true"]), int(r["k_est"])) for r in trials if r["method"] == "cnn-threshold"
        )
        assert ("confusion" in summary["paths"]) == bool(counts)
        if counts:
            k_display = max(max(k for k, _ in counts), 3)
            clipped = Counter()
            for (k, k_est), n in counts.items():
                clipped[(k, min(k_est, k_display))] += n
            expected_rows = [
                {"k_true": str(i), **{f"pred_{j}": str(clipped[(i, j)])
                                      for j in range(k_display + 1)}}
                for i in range(k_display + 1)
            ]
            assert _read_rows(summary["paths"]["confusion"]) == expected_rows

    @pytest.mark.parametrize("preset", ["smoke", "mixed-k-fixed-0db"])
    def test_metrics_from_trials(self, tmp_path, capsys, preset):
        kwargs = {}
        if preset != "smoke":
            kwargs = {"checkpoint": _init_checkpoint(tmp_path), "snapshots_override": 50}
        path = run_preset(preset, seed=3, scale="desk", out_dir=tmp_path, **kwargs)["paths"]["trials"]
        trials = _read_rows(path)
        for method in [None, *dict.fromkeys(r["method"] for r in trials)]:
            rows = [r for r in trials if method is None or r["method"] == method]
            flags = [] if method is None else [f"--method={method}"]

            matched = [r for r in rows if r["k_est"] == r["k_true"]]
            assert cli(["metrics", "--rmse", "--from-trials", str(path), *flags]) == 0
            expected = repr(rmse([_angles(r["truth_deg"]) for r in matched],
                                 [_angles(r["estimates_deg"]) for r in matched]))
            assert capsys.readouterr().out == (expected if matched else "nan") + "\n"

            dh = [float(r["dh_deg"]) for r in rows if r["dh_deg"] != "inf"]
            assert cli(["metrics", "--hausdorff", "--from-trials", str(path), *flags]) == 0
            assert capsys.readouterr().out == (
                f"mean {float(np.mean(dh))!r} max {max(dh)!r} undefined {len(rows) - len(dh)}\n"
            )

    def test_confusion_from_trials_needs_one_method(self, tmp_path, capsys):
        checkpoint = _init_checkpoint(tmp_path)
        both = run_preset("mixed-k-fixed-0db", seed=3, scale="desk", out_dir=tmp_path,
                          checkpoint=checkpoint, snapshots_override=50)["paths"]
        path = both["trials"]
        assert cli(["metrics", "--confusion", "--from-trials", path]) == 1
        err = capsys.readouterr().err
        assert "--method" in err and "cnn-threshold" in err and "cnn-topk" in err
        assert cli(["metrics", "--confusion", "--from-trials", path,
                    "--method", "cnn-threshold"]) == 0
        assert capsys.readouterr().out == _confusion_cells(both["confusion"])

        # a file with one method's rows needs no --method
        one = run_preset("mixed-k-sweep-0db", seed=1, scale="desk", out_dir=tmp_path,
                         checkpoint=checkpoint, snapshots_override=20)["paths"]
        assert cli(["metrics", "--confusion", "--from-trials", one["trials"]]) == 0
        assert capsys.readouterr().out == _confusion_cells(one["confusion"])

    @pytest.mark.parametrize("preset", ["mixed-k-fixed-0db", "snr-sweep"])
    @pytest.mark.parametrize("change", [
        {"grid": GridSpec(60.0, 1.0)},  # 121 outputs for the 61-point desk grid
        {"geom": UlaGeometry(10, 0.5)},  # 10x10 inputs for the 8-sensor desk array
    ])
    def test_checkpoint_network_must_fit_the_scale(self, tmp_path, capsys, preset, change):
        # The metadata says desk scale; the network itself does not fit it.
        spec = build_network_spec(replace(PROFILES["small"], **change))
        path = tmp_path / "other.doac"
        save_checkpoint(path, spec, init_params(spec, np.random.default_rng(0)), {
            "n_sensors": 8, "phi_max_deg": 30.0, "resolution_deg": 1.0,
        })
        out = tmp_path / "out"
        with pytest.raises(ValueError, match="does not fit"):
            run_preset(preset, seed=0, scale="desk", out_dir=out, checkpoint=path)
        assert cli(["eval", "--preset", preset, "--scale", "desk", "--out", str(out),
                    "--checkpoint", str(path)]) == 2
        assert "does not fit" in capsys.readouterr().err
        assert not out.exists()

    def test_confusion_rejects_true_counts_above_k_display(self, tmp_path, capsys):
        path = run_preset("smoke", seed=3, scale="desk", out_dir=tmp_path)["paths"]["trials"]
        args = ["metrics", "--confusion", "--from-trials", path, "--method", "music"]
        assert cli([*args, "--k-display", "1"]) == 2
        assert "true source count 2" in capsys.readouterr().err
        assert cli([*args, "--k-display", "2"]) == 0
        assert capsys.readouterr().out == "0,0,0\n0,0,0\n0,0,6\n"

    def test_metrics_from_trials_without_finite_rows(self, tmp_path, capsys):
        header = ("preset,scale,x_name,x_value,scene_index,mc_index,trial_seed,method,"
                  "k_true,truth_deg,k_est,estimates_deg,sq_err_mean,dh_deg,flag")
        path = tmp_path / "trials.csv"
        path.write_text("\n".join([
            "# two trials without estimates", header,
            "smoke,desk,snr_db,0.0,0,0,0,rmusic,2,-10.4;9.7,0,,,inf,failed:NumericalError",
            "smoke,desk,snr_db,0.0,0,1,1,rmusic,1,9.7,0,,,inf,",
        ]) + "\n")
        assert cli(["metrics", "--hausdorff", "--from-trials", str(path)]) == 0
        assert capsys.readouterr().out == "mean nan max nan undefined 2\n"
        assert cli(["metrics", "--rmse", "--from-trials", str(path)]) == 0
        assert capsys.readouterr().out == "nan\n"

    @pytest.mark.parametrize("error", [EstimatorFailure, NumericalError])
    def test_failing_estimator_leaves_a_flagged_row(self, tmp_path, monkeypatch, error):
        plain = _read_rows(run_preset("smoke", seed=3, scale="desk", out_dir=tmp_path / "a")
                           ["paths"]["trials"])
        real_root_music = presets.root_music
        calls = []

        def failing_on_fourth_trial(*args):
            calls.append(args)
            if len(calls) == 4:
                raise error("a message, with commas, that the CSV must not hold")
            return real_root_music(*args)

        monkeypatch.setattr(presets, "root_music", failing_on_fourth_trial)
        summary = run_preset("smoke", seed=3, scale="desk", out_dir=tmp_path / "b")
        rows = _read_rows(summary["paths"]["trials"])
        flagged = [i for i, row in enumerate(rows) if row["flag"]]
        assert len(flagged) == 1
        i = flagged[0]
        assert rows[i] == {
            **plain[i], "k_est": "0", "estimates_deg": "", "sq_err_mean": "",
            "dh_deg": "inf", "flag": f"failed:{error.__name__}",
        }
        assert plain[i]["method"] == "rmusic" and plain[i]["trial_seed"] == str(3 ^ 3)
        assert rows[:i] + rows[i + 1 :] == plain[:i] + plain[i + 1 :]
        for (x_value, method), agg in summary["aggregates"].items():
            failed = method == "rmusic" and x_value == float(rows[i]["x_value"])
            assert agg["n_undefined_dh"] == (1 if failed else 0)

    def test_cnn_run_builds_one_network_and_one_forward_per_trial(self, tmp_path,
                                                                   monkeypatch):
        # Every trial's input is forwarded once, in blocks of at most 32 trials
        # of one sweep point.
        builds, batch_sizes = [], []
        real_init, real_forward = Network.__init__, Network.forward

        def counted_init(self, *args, **kwargs):
            builds.append(args)
            real_init(self, *args, **kwargs)

        def counted_forward(self, x, *args, **kwargs):
            batch_sizes.append(len(x))
            return real_forward(self, x, *args, **kwargs)

        monkeypatch.setattr(Network, "__init__", counted_init)
        monkeypatch.setattr(Network, "forward", counted_forward)
        summary = run_preset("mixed-k-fixed-0db", seed=3, scale="desk", out_dir=tmp_path,
                             checkpoint=_init_checkpoint(tmp_path), snapshots_override=20)
        assert summary["n_trials"] == 2000
        assert len(builds) == 1
        assert sum(batch_sizes) == summary["n_trials"]
        assert max(batch_sizes) <= 32
        # two points (K = 1, 2) of 1000 trials each
        assert len(batch_sizes) == 2 * math.ceil(1000 / 32)

    @pytest.mark.parametrize("name, seed, snapshots", [
        ("mixed-k-fixed-0db", 3, 50),
        ("snr-sweep", 2, 32),
    ])
    def test_block_forwards_match_one_example_forwards(self, tmp_path, monkeypatch,
                                                       name, seed, snapshots):
        checkpoint = _init_checkpoint(tmp_path)
        blocks = run_preset(name, seed=seed, scale="desk", out_dir=tmp_path / "blocks",
                            checkpoint=checkpoint, snapshots_override=snapshots)
        monkeypatch.setattr(presets, "_FORWARD_BATCH", 1)
        single = run_preset(name, seed=seed, scale="desk", out_dir=tmp_path / "single",
                            checkpoint=checkpoint, snapshots_override=snapshots)
        assert blocks["paths"].keys() == single["paths"].keys()
        for kind, path in blocks["paths"].items():
            if kind != "manifest":
                assert Path(path).read_bytes() == Path(single["paths"][kind]).read_bytes(), kind

    def test_failure_inside_a_forward_block_flags_one_row(self, tmp_path, monkeypatch):
        checkpoint = _init_checkpoint(tmp_path)

        def run(out):
            return run_preset("snr-sweep", seed=2, scale="desk", out_dir=tmp_path / out,
                              checkpoint=checkpoint, snapshots_override=32)

        plain = _read_rows(run("a")["paths"]["trials"])
        real_root_music = presets.root_music
        calls = []

        def failing_on_fourth_trial(*args):
            calls.append(args)
            if len(calls) == 4:
                raise EstimatorFailure("no roots")
            return real_root_music(*args)

        monkeypatch.setattr(presets, "root_music", failing_on_fourth_trial)
        rows = _read_rows(run("b")["paths"]["trials"])
        flagged = [i for i, row in enumerate(rows) if row["flag"].startswith("failed:")]
        assert len(flagged) == 1
        i = flagged[0]
        assert plain[i]["method"] == "rmusic" and plain[i]["trial_seed"] == str(2 ^ 3)
        assert rows[i] == {
            **plain[i], "k_est": "0", "estimates_deg": "", "sq_err_mean": "",
            "dh_deg": "inf", "flag": "failed:EstimatorFailure",
        }
        # the same trial's network row, decoded after the block's forward
        assert rows[i + 2]["method"] == "cnn-topk" and rows[i + 2] == plain[i + 2]
        assert rows[:i] + rows[i + 1 :] == plain[:i] + plain[i + 1 :]

    def test_an_interrupted_run_keeps_its_finished_blocks(self, tmp_path, monkeypatch):
        done = run_preset("smoke", seed=3, scale="desk", out_dir=tmp_path)["paths"]
        assert not list(tmp_path.glob("*.partial"))
        before = {kind: Path(path).read_bytes() for kind, path in done.items()}
        real_hausdorff = presets.hausdorff
        calls = []

        def failing_on_tenth_call(*args):
            calls.append(args)
            if len(calls) == 10:
                raise RuntimeError("stopped")
            return real_hausdorff(*args)

        monkeypatch.setattr(presets, "hausdorff", failing_on_tenth_call)
        with pytest.raises(RuntimeError, match="stopped"):
            run_preset("smoke", seed=3, scale="desk", out_dir=tmp_path)
        # the complete run's files are untouched
        assert {kind: Path(path).read_bytes() for kind, path in done.items()} == before
        # the comment, the header and point 1's block: 3 trials x 3 methods
        lines = before["trials"].splitlines(keepends=True)
        assert (tmp_path / "smoke_desk_trials.csv.partial").read_bytes() == b"".join(lines[:11])

    def test_metrics_from_trials_needs_the_trials_columns(self, tmp_path, capsys):
        path = run_preset("smoke", seed=3, scale="desk", out_dir=tmp_path)["paths"]["aggregate"]
        assert cli(["metrics", "--rmse", "--from-trials", path]) == 2
        assert capsys.readouterr().err == (
            f"error: {path} is not a trials CSV (missing columns: estimates_deg, truth_deg)\n"
        )

    @pytest.mark.parametrize("column", ["truth_deg", "estimates_deg"])
    def test_metrics_from_trials_names_a_bad_angle(self, tmp_path, capsys, column):
        trials = run_preset("smoke", seed=3, scale="desk", out_dir=tmp_path)["paths"]["trials"]
        lines = Path(trials).read_text().splitlines(keepends=True)
        cells = lines[4].split(",")
        cells[lines[1].split(",").index(column)] = "abc"
        # A comment inside the rows still counts as a line of the file.
        lines[3:5] = [lines[3], "# a note\n", ",".join(cells)]
        path = tmp_path / "edited.csv"
        path.write_text("".join(lines))
        assert cli(["metrics", "--rmse", "--from-trials", str(path)]) == 2
        assert capsys.readouterr().err == (
            f"error: {path} line 6, column {column}: could not convert string to float: 'abc'\n"
        )

    def test_desk_counts_are_reduced(self):
        for name in ("snr-sweep", "snapshot-sweep", "sep-sweep"):
            preset = PRESETS[name]
            for pf, pd in zip(preset.points("full"), preset.points("desk")):
                assert pd.mc_per_scene * 10 == pf.mc_per_scene


def _read_rows(path) -> list[dict]:
    with open(path, newline="") as fh:
        assert next(fh).startswith("#")
        return list(csv.DictReader(fh))


def _confusion_cells(path) -> str:
    """The confusion CSV's counts as `metrics --confusion` prints them."""
    rows = _read_rows(path)
    return "".join(",".join(v for k, v in row.items() if k != "k_true") + "\n" for row in rows)


def _angles(text) -> list[float]:
    return [float(v) for v in text.split(";")]


def _init_checkpoint(tmp_path):
    """An untrained small-profile network with the metadata presets check."""
    profile = PROFILES["small"]
    spec = build_network_spec(profile)
    path = tmp_path / "init.doac"
    save_checkpoint(path, spec, init_params(spec, np.random.default_rng(5)), {
        "n_sensors": profile.geom.n_sensors,
        "phi_max_deg": profile.grid.phi_max_deg,
        "resolution_deg": profile.grid.resolution_deg,
    })
    return path


class TestEvalCommand:
    def test_eval_smoke_exit_code(self, tmp_path, capsys):
        rc = cli([
            "eval", "--preset", "smoke", "--seed", "1", "--scale", "desk",
            "--out", str(tmp_path),
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "trials" in out and "aggregate" in out

    @pytest.mark.parametrize("argv", [
        lambda ck, tmp: ["eval", "--preset", "mixed-k-fixed-0db", "--checkpoint", str(tmp)],
        lambda ck, tmp: ["simulate", "--n", "8", "--doas", "5", "--noise-power", "1",
                         "--snapshots", "33", "--out", str(tmp)],
        lambda ck, tmp: ["eval", "--preset", "mixed-k-fixed-0db", "--checkpoint", str(ck),
                         "--out", str(ck / "out")],
    ], ids=["checkpoint-is-a-directory", "out-is-a-directory", "out-below-a-file"])
    def test_os_error_exits_2(self, tmp_path, capsys, argv):
        assert cli(argv(_init_checkpoint(tmp_path), tmp_path)) == 2
        assert capsys.readouterr().err.startswith("error: ")
