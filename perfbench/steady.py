#!/usr/bin/env python3
"""Runs the suite benchmark on several workloads and checks its steadiness.

Runs the benchmark once per seed on each named workload, telemetry off,
and prints every run's end-to-end metrics with their units and its
failed-cell count. Then, for every metric, it prints the median of the
runs and the spread: the distance between the first and third quartile
(statistics.quantiles, n=4) as a share of the median, next to the
metric's bound from BENCHMARK.json. It exits 1 if any run failed. Run
from the repository root:

    python3 perfbench/steady.py --runs 1 fine.S compute.W memory.A
    python3 perfbench/steady.py --runs 10 fine.S compute.W memory.A
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("workloads", nargs="+")
    ap.add_argument("--runs", type=int, default=5)
    args = ap.parse_args()
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    ok = True
    for w in args.workloads:
        vals = {n: [] for n in bounds}
        walls = []
        for seed in range(1, args.runs + 1):
            cmd = bench["command"] + ["--workload", w, "--seed", str(seed),
                                      "--seconds", str(bench["run_seconds"]), "--trace", "0"]
            t0 = time.time()
            p = subprocess.run(cmd, capture_output=True, text=True)
            walls.append(time.time() - t0)
            last = p.stdout.strip().splitlines()[-1] if p.stdout.strip() else ""
            if p.returncode != 0:
                print(f"{w} seed {seed}: exit {p.returncode}\n{p.stdout}{p.stderr}", file=sys.stderr)
                ok = False
                continue
            res = json.loads(last)
            for n in bounds:
                vals[n].append(res["metrics"][n]["value"])
            print(f"{w} seed {seed}: " + " ".join(
                f"{n}={vals[n][-1]:.4g} {res['metrics'][n]['unit']}" for n in bounds)
                + f" failed={res['failed']}/{res['attempted']} wall={walls[-1]:.1f}s", flush=True)
        for n, xs in vals.items():
            if len(xs) < 2:
                continue
            q1, med, q3 = statistics.quantiles(xs, n=4)
            spread = (q3 - q1) / med
            flag = "ok" if spread < bounds[n] / 3 else ("within bound" if spread < bounds[n] else "TOO NOISY")
            print(f"{w} {n}: median {med:.6g} spread {spread:.4f} bound {bounds[n]} {flag}")
        print(f"{w} wall: median {statistics.median(walls):.1f}s max {max(walls):.1f}s", flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
