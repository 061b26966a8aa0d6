#!/usr/bin/env python3
"""Steadiness mode: proves the benchmark's bounds.

Usage, from the root of the repository:

    python3 perfbench/steady.py --runs 10 [--seconds 20] [--first-seed 1]
                                [--out perfbench/steadiness.json]

Runs every workload of `BENCHMARK.json` `--runs` times, untraced, through
`perfbench/run.py`, with a new seed each time and the workload order
reversed on every other run. For
each metric it prints the median, the quartiles (`statistics.quantiles(n=4)`),
the spread (q3 - q1) / median next to the metric's bound from
`BENCHMARK.json`, and (max - min) / median; and for each run the
`host.spin_ms` drift canary measured before and after it. With `--out`,
the same figures are written as JSON. Exits 1 when any run fails its
correctness checks or any end-to-end spread (except `setup_s`) exceeds
its bound.

`setup_s` is left out of the spread check as the benchmark's bounds
define it: its bound limits how far its median may move between two sets
of runs, which one set cannot show. Compare the `setup_s` medians of two
`--out` reports for that.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
                          cwd=ROOT)
    lines = done.stdout.strip().split("\n")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        result = {"correct": False, "attempted": 0, "failed": 0, "metrics": {}}
    config = {}
    for line in lines:
        if line.startswith("# config "):
            config = json.loads(line[len("# config "):])
    return done.returncode, result, config


def main():
    bench = load_benchmark()
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=bench["run_seconds"])
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--out")
    args = ap.parse_args()

    workloads = [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    values = {w: {} for w in workloads}
    runs = {w: [] for w in workloads}
    ok = True
    for i in range(args.runs):
        order = workloads if i % 2 == 0 else list(reversed(workloads))
        seed = args.first_seed + i
        for w in order:
            code, result, config = run_once(w, seed, args.seconds)
            correct = code == 0 and result["correct"] and result["failed"] == 0
            ok &= correct
            runs[w].append({"seed": seed, "correct": correct, "attempted": result["attempted"],
                            "failed": result["failed"],
                            "spin_before_ms": config.get("spin_before_ms"),
                            "spin_after_ms": config.get("spin_after_ms")})
            for name, m in result["metrics"].items():
                values[w].setdefault(name, []).append(m["value"])
            print(f"run {i + 1} {w} seed {seed}: correct={correct} "
                  f"spin {config.get('spin_before_ms', 0):.1f} -> "
                  f"{config.get('spin_after_ms', 0):.1f} ms", flush=True)

    report = {"runs": args.runs, "seconds": args.seconds, "workloads": {}}
    for w in workloads:
        print(f"\n== {w}")
        print(f"{'metric':38} {'median':>12} {'q1':>12} {'q3':>12} {'iqr/med':>8} "
              f"{'bound':>6} {'range/med':>9}")
        rows = {}
        for name, vs in sorted(values[w].items()):
            med = statistics.median(vs)
            q1, _, q3 = statistics.quantiles(vs, n=4) if len(vs) > 1 else (vs[0], 0, vs[0])
            spread = (q3 - q1) / med if med else 0.0
            rng = (max(vs) - min(vs)) / med if med else 0.0
            bound = bounds.get(name)
            flag = ""
            if bound is not None and name != "setup_s":
                if spread > bound:
                    flag, ok = "  OVER BOUND", False
                elif spread > bound / 3:
                    flag = "  over bound/3"
            print(f"{name:38} {med:12.5g} {q1:12.5g} {q3:12.5g} {spread:8.4f} "
                  f"{'' if bound is None else bound:>6} {rng:9.4f}{flag}")
            rows[name] = {"median": med, "q1": q1, "q3": q3, "iqr_over_median": spread,
                          "range_over_median": rng, "bound": bound, "values": vs}
        report["workloads"][w] = {"metrics": rows, "runs": runs[w]}
    if args.out:
        with open(args.out, "w") as f:
            json.dump(report, f, indent=1)
            f.write("\n")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
