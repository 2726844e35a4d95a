#!/usr/bin/env python3
"""Runs the benchmark on two seeds and checks what every run must show.

For each workload and each of the two seeds it makes one untraced and
one traced run, then checks that:

- every run exits 0 and reports `correct: true` with no failed jobs;
- each run's result line carries every metric BENCHMARK.json names for
  its mode (end-to-end untraced, per-layer traced), each a finite number;
- the output digest is the same in the traced and untraced run of one
  seed, and differs between the two seeds.

Usage, from the repository root:

    python3 perfbench/check_seeds.py [--seconds N] [--seeds A B]
"""

import argparse
import json
import math
import re
import subprocess
import sys


def run(command, workload, seed, seconds, trace):
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(args, capture_output=True, text=True)
    if out.returncode != 0:
        sys.exit(f"{workload} seed {seed} trace {trace}: exit {out.returncode}\n{out.stderr[-2000:]}")
    lines = out.stdout.strip().splitlines()
    digest = next((m.group(1) for line in lines
                   for m in [re.match(r"digest \S+ seed=\d+ fnv64=([0-9a-f]+)$", line)] if m), None)
    return json.loads(lines[-1]), digest


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--seconds", type=int, default=2)
    parser.add_argument("--seeds", type=int, nargs=2, default=[1, 2])
    opts = parser.parse_args()
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    wanted = {0: [m["name"] for m in bench["end_to_end"]],
              1: [m["name"] for m in bench["per_layer"]]}
    problems = []
    for w in (w["name"] for w in bench["workloads"]):
        digests = {}
        for seed in opts.seeds:
            for trace in (0, 1):
                result, digest = run(bench["command"], w, seed, opts.seconds, trace)
                where = f"{w} seed {seed} trace {trace}"
                if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
                    problems.append(f"{where}: correct={result['correct']} "
                                    f"failed={result['failed']} attempted={result['attempted']}")
                for name in wanted[trace]:
                    m = result["metrics"].get(name)
                    if m is None or not isinstance(m["value"], (int, float)) or not math.isfinite(m["value"]):
                        problems.append(f"{where}: metric {name} missing or not a number")
                extra = set(result["metrics"]) - set(wanted[trace])
                if extra:
                    problems.append(f"{where}: unlisted metrics {sorted(extra)}")
                if digest is None:
                    problems.append(f"{where}: no digest line")
                digests.setdefault(seed, set()).add(digest)
            print(f"{w} seed {seed}: digest {sorted(digests[seed])}", flush=True)
        for seed, ds in digests.items():
            if len(ds) != 1:
                problems.append(f"{w} seed {seed}: traced and untraced digests differ: {sorted(ds)}")
        a, b = (digests[s] for s in opts.seeds)
        if a & b:
            problems.append(f"{w}: seeds {opts.seeds} give the same digest")
    for p in problems:
        print("FAIL", p)
    print("ok" if not problems else f"{len(problems)} problem(s)")
    sys.exit(1 if problems else 0)


if __name__ == "__main__":
    main()
