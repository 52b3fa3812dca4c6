"""Regenerate ``classical_reference.json``: the classical-desk aggregates
(per-method RMSE and mean Hausdorff distance) for every preset seed the
benchmark uses.

Run from the repository root, on the commit whose outputs become the
reference, at the default BLAS thread count:

    python3 perfbench/make_reference.py

It takes about 16 s per seed on a 2-vCPU machine.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from doabench.presets import run_preset  # noqa: E402

# The benchmark reads the preset, the scale and the seed count back from the
# JSON file, so these are the only copies.
PRESET, SCALE, N_SEEDS = "slide-2p11", "desk", 64


def main() -> None:
    commit = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
    ).stdout.strip()
    out_dir = ROOT / ".perfbench" / "reference"
    values = {}
    for seed in range(N_SEEDS):
        result = run_preset(PRESET, seed, scale=SCALE, out_dir=out_dir)
        trials = Path(result["paths"]["trials"]).read_text().splitlines()[2:]
        flagged = sum(1 for row in trials if row.rsplit(",", 1)[1])
        values[str(seed)] = {
            "flagged_rows": flagged,
            **{
                method: {"rmse_deg": agg["rmse_deg"], "mean_dh_deg": agg["mean_dh_deg"]}
                for (_, method), agg in sorted(result["aggregates"].items())
            },
        }
        print(seed, values[str(seed)], flush=True)
    doc = {
        "preset": PRESET,
        "scale": SCALE,
        "commit": commit,
        "values": values,
    }
    path = Path(__file__).with_name("classical_reference.json")
    path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
