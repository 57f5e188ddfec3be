"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 bench/spread.py --workload report-catalog --seeds 10

Runs ``bench/run.py`` once per seed (untraced, ``run_seconds`` from
BENCHMARK.json), then prints for each end-to-end metric its median and the
distance between its first and third quartile as a share of the median,
next to the metric's bound.  A benchmark is steady when every spread other
than that of ``setup_s`` stays within a third of its bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from stats import quartile_spread

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=0)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    values: dict[str, list[float]] = {m["name"]: [] for m in spec["end_to_end"]}
    for seed in range(args.first_seed, args.first_seed + args.seeds):
        proc = subprocess.run(
            [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(spec["run_seconds"]), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, check=True,
        )
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if not result["correct"]:
            print(f"seed {seed}: outputs are not correct", file=sys.stderr)
            return 1
        for name, m in result["metrics"].items():
            values[name].append(m["value"])
        print(f"seed {seed}: " + json.dumps({k: v[-1] for k, v in values.items()}), flush=True)
    for m in spec["end_to_end"]:
        vals = values[m["name"]]
        spread = quartile_spread(vals) if len(vals) > 1 else 0.0
        print(f"{m['name']:>16}: median {statistics.median(vals):.6g} {m['unit']}, "
              f"spread {spread:.4f} (bound {m['bound']}, a third {m['bound'] / 3:.4f})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
