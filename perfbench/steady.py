"""Steadiness check for the benchmark.

    python3 perfbench/steady.py --workloads sweep,certify --seeds 10 --sets 2

For each workload, runs ``run.py --trace 0`` once per seed (seeds 1..N)
and prints, per end-to-end metric, the median, the quartiles and their
distance as a share of the median, next to the metric's bound from
BENCHMARK.json.  With ``--sets 2`` it does this twice and also compares
the two medians.  It then runs ``--trace 1`` twice on seed 1 and requires
every exact count (unit ``count``) to repeat exactly.  Exits 1 when a
spread (other than ``setup_s``) exceeds its bound, a second median is
worse than the first by more than the bound, or a count differs.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
    print(f"    {workload} seed {seed} trace {trace}: {time.perf_counter() - start:.1f} s wall",
          flush=True)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{' '.join(cmd)} reported failed ops:\n{proc.stdout}")
    return result["metrics"]


def spread_table(spec: dict, runs: list[dict]) -> dict:
    """Print each metric's quartiles; return {name: (median, spread)}."""
    table = {}
    for metric in spec["end_to_end"]:
        name = metric["name"]
        values = [r[name]["value"] for r in runs]
        q1, median, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / median
        table[name] = (median, spread)
        flag = "" if spread <= metric["bound"] / 3 else (
            "  ABOVE BOUND/3" if spread <= metric["bound"] else "  ABOVE BOUND")
        print(f"  {name:14s} median {median:12.6g} q1 {q1:12.6g} q3 {q3:12.6g} "
              f"spread {spread:7.4f} bound {metric['bound']}{flag}")
        print("    runs: " + " ".join(f"{v:.4g}" for v in values))
    return table


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", required=True, help="comma-separated names")
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--sets", type=int, default=1)
    parser.add_argument("--seconds", type=int, help="default: BENCHMARK.json run_seconds")
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    ok = True
    for workload in args.workloads.split(","):
        set_medians = []
        for number in range(1, args.sets + 1):
            print(f"{workload} set {number}: {args.seeds} seeds, {seconds} s each")
            runs = [run(workload, seed, seconds, 0) for seed in range(1, args.seeds + 1)]
            table = spread_table(spec, runs)
            for name, (_, spread) in table.items():
                if name != "setup_s" and spread > bounds[name]:
                    ok = False
            set_medians.append({name: median for name, (median, _) in table.items()})
        for later in set_medians[1:]:
            for metric in spec["end_to_end"]:
                name, first, second = metric["name"], set_medians[0][metric["name"]], later[metric["name"]]
                worse = (second - first) / first if metric["better"] == "lower" else (first - second) / first
                print(f"  second median {name}: {worse:+.4f} worse (bound {metric['bound']})")
                if worse > metric["bound"]:
                    ok = False
        traced = [run(workload, 1, seconds, 1) for _ in range(2)]
        counts = {m["name"] for m in spec["per_layer"] if m["unit"] == "count"}
        differing = [n for n in sorted(counts) if traced[0][n]["value"] != traced[1][n]["value"]]
        print(f"  exact counts, two traced runs of seed 1: "
              f"{'all equal' if not differing else 'DIFFER: ' + ', '.join(differing)}")
        for name in sorted(counts):
            print(f"    {name} = {traced[0][name]['value']}")
        ok = ok and not differing
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
