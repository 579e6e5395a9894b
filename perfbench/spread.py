#!/usr/bin/env python3
"""Runs the benchmark once per seed on each workload and prints, per
end-to-end metric, the median and the quartile spread (Q3 - Q1) / median
as statistics.quantiles(values, n=4) gives them.

Run from the repository root:

    python3 perfbench/spread.py [--seeds 10] [--first-seed 1]

It runs the workloads of BENCHMARK.json, untraced, each run lasting
its run_seconds.
The benchmark binary is built first with
`cargo build --release --offline --manifest-path perfbench/Cargo.toml`.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

with open("BENCHMARK.json") as f:
    BENCHMARK = json.load(f)
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]
SECONDS = BENCHMARK["run_seconds"]


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    a = ap.parse_args()

    subprocess.run(
        ["cargo", "build", "--release", "--offline", "-q",
         "--manifest-path", "perfbench/Cargo.toml"],
        check=True,
    )
    target = os.environ.get("CARGO_TARGET_DIR", "perfbench/target")
    binary = os.path.join(target, "release", "perfbench")
    for workload in WORKLOADS:
        values = {}
        units = {}
        shares = set()
        for seed in range(a.first_seed, a.first_seed + a.seeds):
            out = subprocess.run(
                [binary, "--workload", workload, "--seed", str(seed),
                 "--seconds", str(SECONDS), "--trace", "0"],
                check=True, capture_output=True, text=True,
            ).stdout
            result = json.loads(out.strip().splitlines()[-1])
            if not result["correct"]:
                print(out, file=sys.stderr)
                sys.exit(f"{workload} seed {seed}: output check failed")
            shares.add((result["failed"], result["attempted"]))
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
                units[name] = m["unit"]
        share = {round(f / n, 9) for f, n in shares}
        print(f"{workload}: failed share {sorted(share)}")
        for name, vs in values.items():
            med = statistics.median(vs)
            if len(vs) >= 2:
                q1, _, q3 = statistics.quantiles(vs, n=4)
            else:
                q1 = q3 = med
            spread = (q3 - q1) / med if med else 0.0
            print(f"  {name:34s} median {med:12.4f} {units[name]:9s} "
                  f"Q1 {q1:12.4f} Q3 {q3:12.4f} spread {spread * 100:6.2f}%")


if __name__ == "__main__":
    main()
