#!/usr/bin/env python3
"""Measure the benchmark's baseline: sets of ten seeds per workload.

Run from the repository root:

    python3 lyra-benchmark/baseline.py [--sets 2] [--seeds 1-10] [--out FILE]

Each set runs the command in BENCHMARK.json once per (workload, seed) with
`--trace 0`, in that order. For every end-to-end metric it reports the
median of the ten per-seed values, their spread (distance between the
first and third quartile from `statistics.quantiles(values, n=4)`, as a
share of the median) and, across sets, how far each set's median drifts
from the first set's. Pass `--out` to write every value as JSON. Takes
about (sets x workloads x seeds x (run_seconds + 3)) seconds.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time


def seeds_arg(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run(command, workload, seed, seconds):
    argv = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "0"]
    started = time.time()
    proc = subprocess.run(argv, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    if proc.returncode != 0 or not result or not result["correct"]:
        sys.exit(f"{workload} seed {seed} failed (exit {proc.returncode}):\n{proc.stderr[-4000:]}")
    return result, time.time() - started


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--sets", type=int, default=2)
    ap.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    ap.add_argument("--out")
    args = ap.parse_args()
    bench = json.load(open("BENCHMARK.json"))
    metrics = [m["name"] for m in bench["end_to_end"]]
    sets = []
    for s in range(args.sets):
        values = {}
        for w in bench["workloads"]:
            per_metric = values.setdefault(w["name"], {m: [] for m in metrics})
            for seed in args.seeds:
                result, wall = run(bench["command"], w["name"], seed, bench["run_seconds"])
                for m in metrics:
                    per_metric[m].append(result["metrics"][m]["value"])
                print(f"set {s + 1} {w['name']} seed {seed}: {wall:.1f}s, "
                      f"{result['attempted']} attempted", file=sys.stderr)
        sets.append(values)

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    print(f"{'workload':<11} {'metric':<16} {'bound':>6}  per set: median / spread / drift")
    for w in bench["workloads"]:
        for m in metrics:
            first = statistics.median(sets[0][w["name"]][m])
            cells = []
            for values in sets:
                v = values[w["name"]][m]
                med = statistics.median(v)
                cells.append(f"{med:.6g} / {spread(v):.3f} / {med / first - 1:+.3f}")
            print(f"{w['name']:<11} {m:<16} {bounds[m]:>6}  " + " | ".join(cells))
    if args.out:
        doc = {
            "seeds": args.seeds,
            "run_seconds": bench["run_seconds"],
            "nproc": os.cpu_count(),
            "rustc": subprocess.run(["rustc", "--version"], capture_output=True,
                                    text=True).stdout.strip(),
            "sets": sets,
        }
        with open(args.out, "w") as f:
            json.dump(doc, f, indent=1)
            f.write("\n")


if __name__ == "__main__":
    main()
