"""CLI surface and preset-runner contracts: output formats, exit codes,
overrides and byte-level reproducibility."""

import json

import numpy as np
import pytest

from doabench.arraymodel import SourceScene, UlaGeometry, load_snapshots, simulate_snapshots
from doabench.cli import cli
from doabench.presets import PRESETS, preset_names, run_preset


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
        assert cli(["eval", "--preset", "nope"]) == 2
        err = capsys.readouterr().err
        for name in preset_names():
            assert name in err

    def test_bad_angle_list(self, capsys):
        assert cli(["metrics", "--rmse", "--set-a", "abc", "--set-b", "1"]) == 1


class TestSimulateCommand:
    def test_writes_loadable_block(self, tmp_path, capsys):
        out = tmp_path / "run.doas"
        rc = cli([
            "simulate", "--n", "8", "--doas", "5,-12", "--noise-power", "2.0",
            "--snapshots", "33", "--seed", "7", "--out", str(out),
        ])
        assert rc == 0
        block = load_snapshots(out)
        expected = simulate_snapshots(
            UlaGeometry(8, 0.5), SourceScene((5.0, -12.0), (1.0, 1.0), 2.0), 33, 7
        )
        assert np.array_equal(block.data, expected.data)


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


class TestPresetRunner:
    def test_smoke_outputs_and_determinism(self, tmp_path, capsys):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        s1 = run_preset("smoke", seed=3, scale="desk", out_dir=out1)
        s2 = run_preset("smoke", seed=3, scale="desk", out_dir=out2)
        for kind in ("trials", "aggregate"):
            b1 = open(s1["paths"][kind], "rb").read()
            b2 = open(s2["paths"][kind], "rb").read()
            assert b1 == b2
        manifest = json.loads(open(s1["paths"]["manifest"]).read())
        assert manifest["preset"] == "smoke" and manifest["seed"] == 3
        # 2 sweep points x 1 scene x 3 Monte-Carlo trials
        assert s1["n_trials"] == 6

    def test_smoke_seed_changes_output(self, tmp_path):
        s1 = run_preset("smoke", seed=3, scale="desk", out_dir=tmp_path / "a")
        s2 = run_preset("smoke", seed=4, scale="desk", out_dir=tmp_path / "b")
        assert open(s1["paths"]["trials"]).read() != open(s2["paths"]["trials"]).read()

    def test_aggregate_format(self, tmp_path):
        summary = run_preset("smoke", seed=0, scale="desk", out_dir=tmp_path)
        lines = open(summary["paths"]["aggregate"]).read().splitlines()
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
        lines = open(summary["paths"]["trials"]).read().splitlines()
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
        manifest = json.loads(open(summary["paths"]["manifest"]).read())
        assert manifest["snapshots_override"] == 64

    def test_eta_override_validation(self, tmp_path):
        with pytest.raises(ValueError):
            run_preset("smoke", seed=0, scale="desk", out_dir=tmp_path,
                       eta_override=[1.0, 2.0, 3.0])

    def test_cnn_preset_requires_checkpoint(self, tmp_path):
        with pytest.raises(ValueError, match="doabench train"):
            run_preset("mixed-k-fixed-0db", seed=0, scale="desk", out_dir=tmp_path)

    def test_classical_methods_survive_missing_checkpoint(self, tmp_path):
        # presets that mix classical and network methods degrade gracefully
        summary = run_preset(
            "slide-2p11", seed=0, scale="desk", out_dir=tmp_path,
            snapshots_override=32,
        )
        manifest = json.loads(open(summary["paths"]["manifest"]).read())
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

    def test_desk_counts_are_reduced(self):
        for name in ("snr-sweep", "snapshot-sweep", "sep-sweep"):
            preset = PRESETS[name]
            for pf, pd in zip(preset.points("full"), preset.points("desk")):
                assert pd.mc_per_scene * 10 == pf.mc_per_scene


class TestEvalCommand:
    def test_eval_smoke_exit_code(self, tmp_path, capsys):
        rc = cli([
            "eval", "--preset", "smoke", "--seed", "1", "--scale", "desk",
            "--out", str(tmp_path),
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "trials" in out and "aggregate" in out
