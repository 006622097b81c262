#!/usr/bin/env python3
"""Build and run the zenvisage benchmark (zvbench).

One run:
    python3 perfbench/run.py --workload explore --seed 1 --seconds 10 --trace 0

prints progress and a metric table, then, as the last line of standard
output, one JSON object {"correct", "attempted", "failed", "metrics"}.
--trace 0 reports the end-to-end metrics, --trace 1 the per-layer metrics
of the traced run (and writes its span file under .bench_build/).

Steadiness report (N runs of one workload, seeds 1..N):
    python3 perfbench/run.py --steadiness 10 --workload explore

Checker self-test (a corrupted answer must be rejected):
    python3 perfbench/run.py --self-test

The first call configures and builds the benchmark and the library sources
it measures into .bench_build/perfbench with CMake (Release).
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "zvbench")
WORKLOADS = ("explore", "filter_scan", "dashboard")
RUN_TIMEOUT_S = 175


def fail(msg):
    print("run.py: " + msg, file=sys.stderr)
    sys.exit(2)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "server", "query_service.h")):
        fail("library sources not found under %s/src; run from a full checkout" % ROOT)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    for cmd in steps:
        # Build output goes to stderr: stdout's last line is the result.
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, timeout=880)
        if proc.returncode != 0:
            fail("build step failed: " + " ".join(cmd))


def git_commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                          capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def source_digest():
    """SHA-256 over the library sources (paths and bytes), 16 hex digits."""
    h = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                h.update(f.read())
    return h.hexdigest()[:16]


def bench_cmd(workload, seed, seconds, trace):
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--commit", git_commit(), "--source-digest", source_digest()]
    if trace:
        cmd += ["--spans", os.path.join(BUILD, "spans-%s-seed%s.jsonl" % (workload, seed))]
    return cmd


def run_once(workload, seed, seconds, trace, capture):
    proc = subprocess.run(bench_cmd(workload, seed, seconds, trace), cwd=ROOT,
                          stdout=subprocess.PIPE if capture else None,
                          text=True, timeout=RUN_TIMEOUT_S)
    return proc.returncode, proc.stdout if capture else None


def bounds():
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        return {}
    with open(path) as f:
        spec = json.load(f)
    return {m["name"]: m.get("bound") for m in spec.get("end_to_end", [])}


def steadiness(workload, runs, first_seed, seconds, trace):
    """Runs one workload `runs` times and prints each metric's median and
    quartiles, and the quartile spread as a share of the median next to the
    metric's bound."""
    values, correct, failed = {}, 0, 0
    for i in range(runs):
        seed = first_seed + i
        code, out = run_once(workload, seed, seconds, trace, capture=True)
        if code != 0:
            fail("run with seed %d exited %d" % (seed, code))
        result = json.loads(out.strip().splitlines()[-1])
        correct += bool(result["correct"])
        failed += result["failed"]
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print("seed %d: %s" % (seed, " ".join(
            "%s=%.6g" % (k, v["value"]) for k, v in result["metrics"].items())), flush=True)
    limits = bounds()
    print("\n%s: %d runs, %d correct, %d failed operations" % (workload, runs, correct, failed))
    print("%-34s %12s %12s %12s %8s %6s" % ("metric", "q1", "median", "q3", "spread", "bound"))
    for name, v in values.items():
        q1, med, q3 = statistics.quantiles(v, n=4) if len(v) > 1 else (v[0], v[0], v[0])
        spread = (q3 - q1) / med if med else float("nan")
        bound = limits.get(name)
        print("%-34s %12.6g %12.6g %12.6g %8.4f %6s" % (
            name, q1, med, q3, spread, "-" if bound is None else bound))


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--steadiness", type=int, metavar="N",
                   help="run the workload N times (seeds --seed..--seed+N-1) and "
                        "report each metric's quartiles against its bound")
    p.add_argument("--self-test", action="store_true")
    args = p.parse_args()
    if not args.self_test and args.workload is None:
        p.error("--workload is required")
    build()
    if args.self_test:
        sys.exit(subprocess.run([BINARY, "--self-test"], cwd=ROOT,
                                timeout=RUN_TIMEOUT_S).returncode)
    if args.steadiness:
        steadiness(args.workload, args.steadiness, args.seed, args.seconds, args.trace)
        return
    code, _ = run_once(args.workload, args.seed, args.seconds, args.trace, capture=False)
    sys.exit(code)


if __name__ == "__main__":
    main()
