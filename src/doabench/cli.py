"""Command-line surface.

Subcommands: ``simulate`` (write snapshot files), ``train`` (build a dataset,
train, write a checkpoint), ``eval`` (run a benchmark preset), ``metrics``
(RMSE / Hausdorff / confusion from explicit sets or trial files), ``crlb``
(bound tables) and ``spec-check`` (validate an architecture profile without
training). Exit codes: 0 success, 1 usage error, 2 runtime failure.
"""

from __future__ import annotations

import argparse
import sys
from math import comb

from .arraymodel import SourceScene, UlaGeometry, save_snapshots, simulate_snapshots
from .crlb import crlb_unconditional
from .estimators import EstimatorFailure
from .metrics import confusion, hausdorff, rmse
from .nn import param_count, save_checkpoint
from .numerics import NumericalError
from .presets import PresetArgumentError, run_preset, summarize_trials
from .profiles import PROFILES, build_network_spec
from .training import (
    TrainConfig,
    TrainingDiverged,
    build_fixed_k_dataset,
    build_mixed_k_dataset,
    noise_power_for_snr,
    train,
)

__all__ = ["cli", "main"]


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _numbers(text: str, convert=float) -> tuple:
    try:
        return tuple(convert(v) for v in text.split(",") if v.strip() != "")
    except ValueError as exc:
        kind = "integers" if convert is int else "numbers"
        raise _UsageError(f"expected a comma-separated list of {kind}, got {text!r}") from exc


def _integer(text: str, least: int = 0) -> int:
    if not text.isdecimal() or int(text) < least:
        kind = "positive" if least else "non-negative"
        raise argparse.ArgumentTypeError(f"expected a {kind} integer, got {text!r}")
    return int(text)


def _build_parser() -> _Parser:
    parser = _Parser(prog="doabench", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    # The array and sources, shared by simulate and crlb.
    ula = p = _Parser(add_help=False)
    p.add_argument("--n", type=int, required=True, help="sensor count")
    p.add_argument("--spacing", type=float, default=0.5, help="element spacing in wavelengths")
    p.add_argument("--doas", type=_numbers, required=True, help="comma-separated DoAs in degrees")
    p.add_argument("--powers", type=_numbers, default=None, help="per-source powers (default 1)")

    p = sub.add_parser("simulate", parents=[ula], help="simulate snapshots and write them to a file")
    p.set_defaults(run=_cmd_simulate)
    p.add_argument("--noise-power", type=float, required=True)
    p.add_argument("--snapshots", type=lambda text: _integer(text, 1), required=True)
    p.add_argument("--seed", type=_integer, default=0)
    p.add_argument("--out", required=True)

    p = sub.add_parser("train", help="build a dataset, train the network, write a checkpoint")
    p.set_defaults(run=_cmd_train)
    p.add_argument("--profile", choices=sorted(PROFILES), required=True)
    p.add_argument("--regime", choices=("fixed", "mixed"), default="fixed")
    p.add_argument("--snr-db", type=float, default=None,
                   help="training SNR, mixed regime only (default: profile's first)")
    p.add_argument("--epochs", type=lambda text: _integer(text, 1),
                   help="override the profile's epoch count")
    p.add_argument("--seed", type=_integer, default=0)
    p.add_argument("--out", required=True)

    p = sub.add_parser("eval", help="run a named benchmark preset")
    p.set_defaults(run=_cmd_eval)
    p.add_argument("--preset", required=True)
    p.add_argument("--seed", type=_integer, default=0)
    p.add_argument("--scale", choices=("full", "desk"), default="desk")
    p.add_argument("--out", default="results")
    p.add_argument("--checkpoint", default=None)
    p.add_argument("--eta", type=_numbers, default=None,
                   help="override the preset's noise bound(s), one value or one per sweep point")
    p.add_argument("--snapshots", type=lambda text: _integer(text, 1),
                   help="override the snapshot count")

    p = sub.add_parser("metrics", help="compute RMSE/Hausdorff/confusion")
    p.set_defaults(run=_cmd_metrics)
    kind = p.add_mutually_exclusive_group(required=True)
    kind.add_argument("--rmse", action="store_true")
    kind.add_argument("--hausdorff", action="store_true")
    kind.add_argument("--confusion", action="store_true")
    p.add_argument("--set-a", type=_numbers, default=None, help="first angle set (degrees)")
    p.add_argument("--set-b", type=_numbers, default=None, help="second angle set (degrees)")
    p.add_argument("--from-trials", default=None, help="per-trial CSV from `eval`")
    p.add_argument("--method", default=None, help="restrict --from-trials rows to one method")
    p.add_argument("--k-display", type=_integer, default=3, help="confusion matrix size")

    p = sub.add_parser("crlb", parents=[ula], help="print a table of DoA standard-deviation bounds")
    p.set_defaults(run=_cmd_crlb)
    noise = p.add_mutually_exclusive_group(required=True)
    noise.add_argument("--noise-power", type=float, default=None)
    noise.add_argument("--snr-db", type=float, default=None,
                       help="noise power derived for unit minimum source power")
    p.add_argument("--snapshots", type=lambda text: _numbers(text, int), required=True,
                   help="comma-separated snapshot counts")

    p = sub.add_parser("spec-check", help="validate an architecture profile (no training)")
    p.set_defaults(run=_cmd_spec_check)
    p.add_argument("--profile", choices=sorted(PROFILES), required=True)

    return parser


def _geometry_and_scene(args):
    """The array and sources of ``simulate`` or ``crlb``."""
    geom = UlaGeometry(args.n, args.spacing)
    powers = args.powers if args.powers is not None else (1.0,) * len(args.doas)
    noise = args.noise_power
    if noise is None:  # crlb --snr-db, for unit minimum source power
        noise = noise_power_for_snr(args.snr_db) * min(powers)
    return geom, SourceScene(args.doas, powers, noise)


def _cmd_simulate(args) -> int:
    geom, scene = _geometry_and_scene(args)
    save_snapshots(simulate_snapshots(geom, scene, args.snapshots, args.seed), args.out)
    print(f"wrote {args.snapshots} snapshots for {args.n} sensors to {args.out}")
    return 0


# Epochs between learning-rate halvings, per training regime
_LR_HALVING_PERIOD = {"fixed": 10, "mixed": 20}


def _cmd_train(args) -> int:
    if args.regime == "fixed" and args.snr_db is not None:
        raise _UsageError("--snr-db is for --regime mixed; fixed trains at the profile's SNRs")
    profile = PROFILES[args.profile]
    spec = build_network_spec(profile)
    if args.regime == "fixed":
        snrs, k_policy = list(profile.fixed_snrs_db), f"fixed-{profile.fixed_k}"
        dataset = build_fixed_k_dataset(profile.grid, profile.geom, profile.fixed_k, snrs)
    else:
        snr = args.snr_db if args.snr_db is not None else profile.mixed_snrs_db[0]
        snrs, k_policy = [snr], f"mixed-1..{profile.mixed_k_max}"
        dataset = build_mixed_k_dataset(profile.grid, profile.geom, profile.mixed_k_max, snr)
    epochs = args.epochs if args.epochs is not None else profile.epochs
    config = TrainConfig(
        epochs=epochs, lr_halving_period_epochs=_LR_HALVING_PERIOD[args.regime], seed=args.seed
    )
    print(
        f"training profile {profile.name!r} ({args.regime} regime, "
        f"{len(dataset)} examples, {epochs} epochs)"
    )
    params, history = train(spec, dataset, config)
    metadata = {
        "profile": profile.name,
        "regime": args.regime,
        "n_sensors": profile.geom.n_sensors,
        "spacing_ratio": profile.geom.spacing_ratio,
        "phi_max_deg": profile.grid.phi_max_deg,
        "resolution_deg": profile.grid.resolution_deg,
        "snr_db_list": snrs,
        "k_policy": k_policy,
        "epochs": epochs,
        "seed": args.seed,
        "final_train_loss": history.train_loss[-1],
        "final_val_loss": history.val_loss[-1],
    }
    save_checkpoint(args.out, spec, params, metadata)
    print(
        f"final train loss {history.train_loss[-1]:.4f}, "
        f"validation loss {history.val_loss[-1]:.4f}; checkpoint written to {args.out}"
    )
    return 0


def _cmd_eval(args) -> int:
    summary = run_preset(
        args.preset,
        seed=args.seed,
        scale=args.scale,
        out_dir=args.out,
        checkpoint=args.checkpoint,
        eta_override=args.eta,
        snapshots_override=args.snapshots,
    )
    for kind, path in summary["paths"].items():
        print(f"{kind}: {path}")
    return 0


def _read_trials(path, method):
    """(file line number, row) for each row of a trials CSV, or of one method's rows."""
    import csv

    with open(path, newline="") as fh:
        lines = [(number, line) for number, line in enumerate(fh, 1) if not line.startswith("#")]
    reader = csv.DictReader(line for _, line in lines)
    missing = sorted({"method", "truth_deg", "estimates_deg"} - set(reader.fieldnames or ()))
    if missing:
        raise ValueError(f"{path} is not a trials CSV (missing columns: {', '.join(missing)})")
    rows = [(lines[reader.line_num - 1][0], row) for row in reader
            if method is None or row["method"] == method]
    if not rows:
        raise ValueError(f"no matching rows in {path}")
    return rows


def _cmd_metrics(args) -> int:
    if args.from_trials is not None:
        def parse(number, row, column):
            try:
                return tuple(float(v) for v in row[column].split(";")) if row[column] else ()
            except ValueError as exc:
                raise ValueError(f"{args.from_trials} line {number}, column {column}: {exc}") from exc

        rows = _read_trials(args.from_trials, args.method)
        truths = [parse(*r, "truth_deg") for r in rows]
        estimates = [parse(*r, "estimates_deg") for r in rows]
        if args.rmse or args.hausdorff:
            # The aggregate CSV's rule, with nan for the cells it leaves empty.
            entries = [(t, e, hausdorff(t, e)) for t, e in zip(truths, estimates)]
            value = {key: float("nan") if v is None else v
                     for key, v in summarize_trials(entries).items()}
            if args.rmse:
                print(repr(value["rmse_deg"]))
            else:
                print(f"mean {value['mean_dh_deg']!r} max {value['max_dh_deg']!r} "
                      f"undefined {value['n_undefined_dh']}")
        else:
            methods = sorted({row["method"] for _, row in rows})
            if len(methods) > 1:
                raise _UsageError(
                    f"--confusion counts one method's rows; pick one of {', '.join(methods)} "
                    "with --method"
                )
            matrix = confusion(
                [len(t) for t in truths], [len(e) for e in estimates], args.k_display
            )
            for row in matrix:
                print(",".join(str(int(v)) for v in row))
        return 0
    if args.set_a is None or args.set_b is None:
        raise _UsageError("metrics needs either --from-trials or both --set-a and --set-b")
    if args.rmse:
        print(repr(rmse([args.set_a], [args.set_b])))
    elif args.hausdorff:
        print(repr(hausdorff(args.set_a, args.set_b)))
    else:
        raise _UsageError("--confusion needs --from-trials")
    return 0


def _cmd_crlb(args) -> int:
    geom, scene = _geometry_and_scene(args)
    # Every bound first, so that a failure prints no partial table.
    bounds = [crlb_unconditional(geom, scene, t) for t in args.snapshots]
    print("snapshots," + ",".join(f"bound_deg_{a}" for a in args.doas))
    for t, bound in zip(args.snapshots, bounds):
        print(f"{t}," + ",".join(repr(float(b)) for b in bound))
    return 0


def _cmd_spec_check(args) -> int:
    profile = PROFILES[args.profile]
    spec = build_network_spec(profile)
    chain = spec.shape_chain()
    conv_dims = [profile.geom.n_sensors] + [
        shape[0]
        for layer, shape in zip(spec.layers, chain)
        if layer.kind == "conv2d"
    ]
    flatten = next(shape[0] for shape in chain if len(shape) == 1)
    n_grid = profile.grid.n_points
    total = param_count(spec)
    n_fixed_per_snr = comb(n_grid, profile.fixed_k)
    n_fixed_total = n_fixed_per_snr * len(profile.fixed_snrs_db)
    n_mixed = sum(comb(n_grid, k) for k in range(1, profile.mixed_k_max + 1))
    print(f"profile: {profile.name}")
    print(f"input: {profile.geom.n_sensors}x{profile.geom.n_sensors}x3")
    print("convolution chain: " + " -> ".join(str(d) for d in conv_dims))
    print(f"flatten width: {flatten}")
    print(f"layer count: {len(spec.layers)}")
    print(f"output length: {n_grid}")
    print(f"trainable parameters: {total:,}")
    print(f"fixed-K examples per SNR (K={profile.fixed_k}): {n_fixed_per_snr:,}")
    print(
        f"fixed-K examples over {len(profile.fixed_snrs_db)} SNRs: {n_fixed_total:,}"
    )
    print(f"mixed-K examples (K_max={profile.mixed_k_max}): {n_mixed:,}")
    return 0


def cli(argv=None) -> int:
    """Run the command line; returns the process exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return 1
    try:
        return args.run(args)
    except (_UsageError, PresetArgumentError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError, KeyError, NumericalError, EstimatorFailure,
            TrainingDiverged) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(cli())


if __name__ == "__main__":
    main()
