"""Run-to-run spread of the end-to-end metrics.

    python3 perfbench/spread.py --workload NAME [--seeds 1,2,...]

Runs the benchmark once per seed for BENCHMARK.json's ``run_seconds``, one run at a time, and prints for each
end-to-end metric its median and the distance between the first and third
quartiles (``statistics.quantiles(values, n=4)``) as a share of the median,
next to the metric's bound from BENCHMARK.json, plus the failed share.
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


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1,2,3,4,5,6,7,8,9,10")
    args = parser.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    values, shares = {}, set()
    for seed in args.seeds.split(","):
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", args.workload,
             "--seed", seed, "--seconds", str(seconds), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, check=True)
        result = json.loads(proc.stdout.splitlines()[-1])
        shares.add((result["failed"] / result["attempted"], result["correct"]))
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(seed, f"{time.perf_counter() - start:.1f}s",
              json.dumps({k: round(v["value"], 4)
                          for k, v in result["metrics"].items()}),
              flush=True)
    print(f"failed share, correct: {sorted(shares)}")
    for m in bench["end_to_end"]:
        vals = values[m["name"]]
        print(f"{m['name']:16s} median {statistics.median(vals):10.4f} "
              f"spread {spread(vals):.4f} bound {m['bound']}")


def spread(values):
    """Distance between the quartiles as a share of the median."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


if __name__ == "__main__":
    main()
