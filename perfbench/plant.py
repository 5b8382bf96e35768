"""Show that every correctness check can fail.

    python3 perfbench/plant.py [--workloads NAME,...]

For each workload, one plain pass lists the checks of every operation.
Then each check is planted in turn: ``run.py --plant`` perturbs the value
the check judges (a shifted NP region, a mean moved off by 1e-6 or by 4
standard errors, a swapped Galois pair, a changed exit code...) and the
check must then be reported as a failure of its operation.  Checks of
different operations are planted together, one per operation and run.
"""
from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("cli-readme", "gauss-design", "exact-algebra", "mc-paths")


def run(workload, planted):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", "1", "--seconds", "0", "--trace", "0"]
    if planted:
        cmd += ["--plant", ",".join(planted)]
    subprocess.run(cmd, capture_output=True, check=True)
    suffix = "-plant" if planted else ""
    return json.loads(
        (HERE / "out" / f"result-{workload}-seed1-trace0{suffix}.json").read_text())


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    args = parser.parse_args()
    missed = []
    for workload in args.workloads.split(","):
        base = run(workload, [])
        by_op = base["checks"]
        rounds = max(len(names) for names in by_op.values())
        caught = 0
        for i in range(rounds):
            planted = {op: names[i] for op, names in by_op.items()
                       if i < len(names)}
            details = run(workload, sorted(planted.values()))
            for op, name in planted.items():
                if name in details["failures"].get(op, []):
                    caught += 1
                else:
                    missed.append(f"{workload}: {op}: {name}")
        total = sum(len(v) for v in by_op.values())
        print(f"{workload}: {caught} of {total} planted faults reported",
              flush=True)
    for line in missed:
        print("MISSED", line)
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main())
