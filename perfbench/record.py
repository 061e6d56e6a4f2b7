"""Record a point of the bench trajectory: untraced runs of every workload on
seeds 1 to 10, then one traced run per workload, one process at a time, with
the workloads and measuring time of BENCHMARK.json.

    python3 perfbench/record.py --out perfbench/baseline.json

For each end-to-end metric it stores the value of every run, the median, and
the spread: the distance between the first and third quartile
(`statistics.quantiles(values, n=4)`) as a share of the median.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RUNS = 10


def run_once(workload: str, seed: int, trace: int) -> dict:
    out = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                          "--seed", str(seed), "--trace", str(trace)],
                         capture_output=True, text=True, timeout=600, check=False)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if out.returncode != 0 or not result["correct"]:
        raise SystemExit(f"{workload} seed {seed} failed:\n{out.stdout[-2000:]}")
    return result


def summary(values: list) -> dict:
    med = statistics.median(values)
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "spread": (q3 - q1) / med, "values": values}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    workloads = [w["name"] for w in spec["workloads"]]
    record = {"python": platform.python_version(), "machine": platform.machine(),
              "processor": platform.processor(), "cpus": os.cpu_count(),
              "seconds": spec["run_seconds"], "seeds": list(range(1, RUNS + 1)),
              "untraced": {}, "traced": {}}
    for workload in workloads:
        runs = [run_once(workload, seed, 0) for seed in record["seeds"]]
        metrics = {name: summary([r["metrics"][name]["value"] for r in runs])
                   for name in runs[0]["metrics"]}
        record["untraced"][workload] = metrics
        print(workload, " ".join(f"{k}={v['median']:.4g} (spread {v['spread']:.3f})"
                                 for k, v in metrics.items()), flush=True)
    for workload in workloads:
        traced = run_once(workload, 1, 1)
        record["traced"][workload] = {k: v["value"] for k, v in traced["metrics"].items()}
    with open(args.out, "w") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
