#!/usr/bin/env python3
"""Build and run the ABae benchmark (one workload, one run).

Usage, from the root of the repository:

    python3 perfbench/run.py --workload dashboard_warm --seed 1 --seconds 15 --trace 0

Builds `perfbench/` (a standalone Cargo package over the engine crates)
in release mode, runs it, adds `rss_peak_mb` (the benchmark process's
peak resident set, from `wait4`) to the end-to-end metrics, and prints
the result as the last line of standard output. Build output goes to
standard error. The build directory is `$CARGO_TARGET_DIR`, or
`.bench_build` when that is unset.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
MANIFEST = os.path.join(HERE, "Cargo.toml")


def build(env):
    cmd = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", MANIFEST]
    done = subprocess.run(cmd, env=env, stdout=sys.stderr)
    if done.returncode != 0:
        sys.exit(f"perfbench: build failed ({done.returncode})")
    return os.path.join(env["CARGO_TARGET_DIR"], "release", "abae-perfbench")


def main():
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    binary = build(env)
    trace = "0"
    args = sys.argv[1:]
    if "--trace" in args and args.index("--trace") + 1 < len(args):
        trace = args[args.index("--trace") + 1]
    # Two malloc arenas (the reference host's vCPU count): without a cap,
    # peak RSS depends on which threads happen to allocate first.
    run_env = dict(env, MALLOC_ARENA_MAX="2")
    child = subprocess.Popen([binary] + args, stdout=subprocess.PIPE, text=True, env=run_env)
    out = child.stdout.read()
    child.stdout.close()
    _, status, usage = os.wait4(child.pid, 0)
    child.returncode = os.waitstatus_to_exitcode(status)
    lines = out.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (json.JSONDecodeError, IndexError):
        sys.stdout.write(out)
        sys.exit(f"perfbench: no result line (exit {child.returncode})")
    if trace == "0":
        # ru_maxrss is in KiB on Linux.
        result["metrics"]["rss_peak_mb"] = {"value": usage.ru_maxrss / 1024.0, "unit": "MB"}
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result), flush=True)
    sys.exit(child.returncode)


if __name__ == "__main__":
    main()
