#!/usr/bin/env python3
"""Runs the benchmark on several seeds and prints, for each end-to-end
metric, the median and the spread: the distance between the first and
third quartile of its values as a share of their median, next to the
metric's bound in BENCHMARK.json.

Run from the repository root:

    python3 perfbench/spread.py --workload olap-star --seeds 1-5
"""
import argparse
import json
import statistics
import subprocess
import sys


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-5", help="inclusive range, e.g. 1-10")
    ap.add_argument("--trace", default="0")
    args = ap.parse_args()
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    lo, hi = (int(x) for x in args.seeds.split("-"))
    values = {}
    for seed in range(lo, hi + 1):
        cmd = bench["command"] + ["--workload", args.workload, "--seed", str(seed),
                                  "--seconds", str(bench["run_seconds"]), "--trace", args.trace]
        out = subprocess.run(cmd, capture_output=True, text=True)
        lines = out.stdout.strip().splitlines()
        if out.returncode != 0 or not lines:
            sys.stdout.write(out.stdout + out.stderr)
            sys.exit(f"seed {seed}: exit {out.returncode}")
        res = json.loads(lines[-1])
        if not res["correct"] or res["failed"]:
            sys.exit(f"seed {seed}: {lines[-1]}")
        for name, m in res["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {seed}: " + " ".join(f"{k}={v['value']:.4g}" for k, v in sorted(res["metrics"].items())), flush=True)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    for name, vs in sorted(values.items()):
        med = statistics.median(vs)
        spread = 0.0
        if len(vs) >= 2 and med:
            q = statistics.quantiles(vs, n=4)
            spread = (q[2] - q[0]) / med
        bound = bounds.get(name)
        flag = ""
        if bound is not None and name != "setup_s" and spread > bound / 3:
            flag = "  ABOVE bound/3"
        print(f"{name:24s} median {med:12.5g} spread {spread:7.3f} bound {bound}{flag}")


if __name__ == "__main__":
    main()
