#!/usr/bin/env python3
"""Runs the benchmark over several seeds and prints, for every metric, the
median and the quartile spread (Q3 - Q1) / median.

    python3 perfbench/spread.py --workload serve_hot --seeds 1-10 [--trace 0]

Run from the repository root. The command and run length come from
BENCHMARK.json; --seconds overrides the run length.
"""

import argparse
import json
import statistics
import subprocess
import sys


def seeds(spec):
    if "-" in spec:
        lo, hi = spec.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in spec.split(",")]


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-5")
    ap.add_argument("--trace", default="0")
    ap.add_argument("--seconds", type=int)
    args = ap.parse_args()
    bench = json.load(open("BENCHMARK.json"))
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    values = {}
    for seed in seeds(args.seeds):
        cmd = bench["command"] + [
            "--workload", args.workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", args.trace,
        ]
        out = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        if out.returncode != 0:
            sys.exit(f"seed {seed}: exit {out.returncode}\n{out.stderr[-2000:]}")
        result = json.loads(out.stdout.strip().splitlines()[-1])
        if not result["correct"] or result["failed"]:
            print(out.stdout)
            sys.exit(f"seed {seed}: not correct or failed operations")
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        steal = [l.split(":")[1].strip() for l in out.stdout.splitlines()
                 if l.startswith("host cpu steal")]
        print(f"seed {seed}: " + ", ".join(
            f"{k}={v['value']:.6g}" for k, v in result["metrics"].items())
            + f", steal={steal[0] if steal else '?'}", flush=True)
    for name, vals in values.items():
        med = statistics.median(vals)
        if len(vals) >= 2:
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else float("nan")
        else:
            spread = float("nan")
        bound = bounds.get(name)
        verdict = ""
        if bound is not None:
            verdict = "ok" if spread < bound / 3 else "WIDE"
        print(f"{name:32} median {med:14.6g}  spread {spread:8.4f}  bound {bound}  {verdict}")


if __name__ == "__main__":
    main()
