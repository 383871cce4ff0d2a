#!/usr/bin/env python3
"""Builds the benchmark from source and runs it.

    python3 perfbench/run.py --workload <steady|storm|fleet|adversary|all> \
        --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The benchmark is built in release mode
into $CARGO_TARGET_DIR (default: .bench_build at the root). Each workload
runs in its own single-threaded process; its last line of standard output
is the JSON result. `--workload all` runs the four workloads one after
another, prints a summary table, and exits nonzero if any check failed.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ["steady", "storm", "fleet", "adversary"]


def build(env):
    """Builds the benchmark; returns the binary's path, or None on failure."""
    manifest = os.path.join(ROOT, "perfbench", "Cargo.toml")
    done = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest],
        cwd=ROOT,
        env=env,
    )
    if done.returncode != 0:
        return None
    target = env["CARGO_TARGET_DIR"]
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    return os.path.join(target, "release", "perfbench")


def run_all(binary, rest):
    """Runs every workload with the arguments `rest`."""
    results, status = {}, 0
    for w in WORKLOADS:
        done = subprocess.run([binary, "--workload", w] + rest, cwd=ROOT, capture_output=True, text=True)
        sys.stdout.write(done.stdout)
        sys.stderr.write(done.stderr)
        lines = done.stdout.strip().splitlines()
        try:
            results[w] = json.loads(lines[-1])
        except (IndexError, ValueError):
            results[w] = None
        if done.returncode != 0 or not results[w] or not results[w]["correct"]:
            status = 1
    names = []
    for r in results.values():
        for name, m in (r or {}).get("metrics", {}).items():
            if (name, m["unit"]) not in names:
                names.append((name, m["unit"]))
    print("\n%-40s %-8s" % ("metric", "unit") + "".join("%16s" % w for w in WORKLOADS))
    for name, unit in names:
        row = "%-40s %-8s" % (name, unit)
        for w in WORKLOADS:
            m = (results[w] or {}).get("metrics", {}).get(name)
            row += "%16.6g" % m["value"] if m else "%16s" % "-"
        print(row)
    print("checks: " + ", ".join("%s=%s" % (w, "ok" if results[w] and results[w]["correct"] else "FAILED") for w in WORKLOADS))
    return status


def main():
    args = sys.argv[1:]
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    binary = build(env)
    if binary is None:
        print("perfbench: the build failed", file=sys.stderr)
        return 1
    at = args.index("--workload") if "--workload" in args else -1
    if at >= 0 and args[at + 1:at + 2] == ["all"]:
        return run_all(binary, args[:at] + args[at + 2:])
    return subprocess.run([binary] + args, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
