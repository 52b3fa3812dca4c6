"""Benchmark of the doabench workbench, run from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

``--trace 0`` measures the end-to-end metrics with nothing wrapped. ``--trace
1`` measures the per-layer metrics: untraced and traced passes alternate at
the default BLAS thread count, then a child process started with
``OPENBLAS_NUM_THREADS=1`` makes traced passes. Every pass's outputs are checked. Human-readable
lines come first; the last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``. Outputs go to
``.perfbench/<workload>/``. See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORK_ROOT = ROOT / ".perfbench"

# Set-up is timed in fresh interpreters, this many times, and the median kept.
SETUP_PROBES = 5
# Shares of --seconds in a traced run: alternating untraced and traced passes,
# then traced passes at one BLAS thread. At least two traced passes at the
# default thread count, so that the l21 and trial percentiles on
# classical-desk rest on over 100 samples.
TRACED_SHARE, BLAS1_SHARE = 0.75, 0.25
TRACED_MIN_PASSES = 2

END_TO_END_UNITS = {"setup_s": "s", "trials_per_s": "1/s", "epoch_s": "s", "peak_rss_mb": "MiB"}

# The program is always the one in this checkout's src/, never an installed copy.
_SRC = (ROOT / "src").resolve()
sys.path.insert(0, str(_SRC))
try:
    import doabench
except ImportError as exc:
    raise SystemExit(f"perfbench: cannot import doabench from {_SRC}: {exc}")
if not Path(doabench.__file__).resolve().is_relative_to(_SRC):
    raise SystemExit(f"perfbench: doabench imported from {doabench.__file__}, not {_SRC}")

import spans  # noqa: E402
import workloads  # noqa: E402


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        )
    except OSError:
        return None
    return out.stdout.strip() or None


def environment() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {key: blas.get(key) for key in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError):
        blas = None
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "git_commit": git_commit(),
    }


def run_pass(workload, tracer=None):
    start = time.perf_counter()
    try:
        if tracer is None:
            result = workload.invoke()
        else:
            result = tracer.call(workload.root_span, workload.invoke)
    except Exception as exc:  # a pass that raises fails as a whole; the run goes on
        traceback.print_exc()
        return workload.failed_pass(
            time.perf_counter() - start, f"raised {type(exc).__name__}: {exc}"
        )
    return workload.check(result, time.perf_counter() - start)


def measure(workload, budget: float, tracer=None) -> list:
    """Run passes until ``budget`` seconds have gone, at least one."""
    outcomes = []
    start = time.perf_counter()
    while not outcomes or time.perf_counter() - start < budget:
        outcomes.append(run_pass(workload, tracer))
    return outcomes


def epoch_seconds(outcomes) -> float:
    return statistics.median(o.seconds / o.epochs for o in outcomes)


def child_command(args, role: str, seconds: float) -> list[str]:
    return [
        sys.executable, str(Path(__file__).resolve()), "--role", role,
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", repr(seconds), "--trace", str(args.trace),
    ]


def setup_seconds(args) -> float:
    """Median wall time of a fresh interpreter that imports doabench and sets
    the workload up, which is what a user waits for before the first pass."""
    times = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        subprocess.run(child_command(args, "setup", args.seconds), check=True,
                       stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def end_to_end(outcomes, setup_s: float) -> dict:
    values = {
        "setup_s": setup_s,
        "trials_per_s": statistics.median(o.items / o.seconds for o in outcomes),
        "epoch_s": epoch_seconds(outcomes),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return {name: (values[name], unit) for name, unit in END_TO_END_UNITS.items()}


def install_probes(tracer, warn: bool = True) -> None:
    missing = workloads.install(tracer, workloads.probes())
    if missing and warn:
        print(f"perfbench: call points not found, not traced: {', '.join(missing)}",
              file=sys.stderr)


def per_layer(args, workload):
    """Untraced and traced passes alternate, so that drift in the machine's
    speed cancels out of ``trace_overhead``; then a child process repeats
    the traced passes at one BLAS thread."""
    tracer = spans.Tracer()
    untraced, traced = [], []
    start = time.perf_counter()
    while (len(traced) < TRACED_MIN_PASSES
           or time.perf_counter() - start < TRACED_SHARE * args.seconds):
        untraced.append(run_pass(workload))
        with tracer:
            install_probes(tracer, warn=not traced)
            traced.append(run_pass(workload, tracer))
    values = workloads.layer_metrics(
        tracer, workload.root_span, sum(o.epochs for o in traced), epoch_seconds(untraced)
    )
    child = subprocess.run(
        child_command(args, "blas1", BLAS1_SHARE * args.seconds),
        env={**os.environ, "OPENBLAS_NUM_THREADS": "1"},
        check=True, stdout=subprocess.PIPE, text=True,
    )
    blas1 = json.loads(child.stdout.strip().splitlines()[-1])
    units = workloads.per_layer_units()
    for name, unit in workloads.LAYER_UNITS.items():
        if unit in workloads.TIME_UNITS:
            values[f"{name}.blas1_delta"] = blas1["metrics"][name] - values[name]
    metrics = {name: (values[name], unit) for name, unit in units.items()}
    return untraced + traced, metrics, blas1


def report(args, env, outcomes, metrics, child=None) -> None:
    """Print the result and keep it, with the environment, in the work directory.

    ``child`` is the one-BLAS-thread phase's summary, whose passes count too.
    """
    child = child or {"attempted": 0, "failed": 0, "problems": []}
    problems = [p for o in outcomes for p in o.problems] + child["problems"]
    correct = not problems
    attempted = sum(o.attempted for o in outcomes) + child["attempted"]
    failed = sum(o.failed for o in outcomes) + child["failed"]
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}")
    print("env " + json.dumps(env, sort_keys=True))
    print(
        f"passes {len(outcomes)}: attempted {attempted}, failed {failed}, "
        f"fail_frac {failed / max(attempted, 1):.6g}, checks {'ok' if correct else 'FAILED'}"
    )
    for problem in problems:
        print(f"  check: {problem}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<40} {value:>14.6g} {unit}")
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    out_dir = WORK_ROOT / args.workload
    out_dir.mkdir(parents=True, exist_ok=True)
    record = {
        "args": vars(args), "env": env, "problems": problems, **result,
        "pass_seconds": [o.seconds for o in outcomes],
    }
    (out_dir / f"result-trace{args.trace}.json").write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(result))


def non_negative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("must be a non-negative integer")
    return value


def positive_float(text: str) -> float:
    value = float(text)
    if not value > 0:
        raise argparse.ArgumentTypeError("must be positive")
    return value


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=non_negative_int, required=True)
    parser.add_argument("--seconds", type=positive_float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    # Child processes the benchmark starts itself.
    parser.add_argument("--role", choices=("main", "setup", "blas1"), default="main",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(workloads.WORKLOADS)}")
    work_dir = WORK_ROOT / args.workload / args.role

    def create():
        return workloads.WORKLOADS[args.workload](args.seed, work_dir)

    if args.role == "setup":
        create()
        return 0
    if args.role == "blas1":
        workload = create()
        with spans.Tracer() as tracer:
            install_probes(tracer, warn=False)
            traced = measure(workload, args.seconds, tracer=tracer)
        values = workloads.layer_metrics(
            tracer, workload.root_span, sum(o.epochs for o in traced)
        )
        print(json.dumps({
            "attempted": sum(o.attempted for o in traced),
            "failed": sum(o.failed for o in traced),
            "problems": [f"one BLAS thread: {p}" for o in traced for p in o.problems],
            "metrics": values,
        }))
        return 0

    env = environment()
    if args.trace == 0:
        setup_s = setup_seconds(args)
        workload = create()
        outcomes = measure(workload, args.seconds)
        report(args, env, outcomes, end_to_end(outcomes, setup_s))
    else:
        workload = create()
        outcomes, metrics, child = per_layer(args, workload)
        report(args, env, outcomes, metrics, child)
    return 0


if __name__ == "__main__":
    sys.exit(main())
