#!/usr/bin/env python3
"""Build and run the rarsub benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload optimize-suite --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --fidelity --seed 0
    python3 perfbench/run.py --report --seed 1 --seconds 20

The first form builds the harness (dune, into .bench_build) and runs one
workload; the last line of its standard output is the JSON result. The
fidelity form checks the optimize-suite pipeline against Job.run_cold on
every circuit x method. The report form runs the fidelity check, then
every workload untraced and traced, and prints each end-to-end metric
with its unit and sample count, the per-layer metrics, and the tracing
overhead (traced job_s_p50 over untraced job_s_p50).
"""

import json
import os
import subprocess
import sys

ROOT = os.getcwd()
BUILD_DIR = os.path.join(ROOT, ".bench_build")
EXE = os.path.join(BUILD_DIR, "default", "perfbench", "perfbench.exe")
WORKLOADS = ["optimize-suite", "optimize-aig", "daemon-mix"]
RUN_TIMEOUT = 170


def build():
    """Build the harness from source; the build log goes to stderr."""
    cmd = ["dune", "build", "--root", ROOT, "--build-dir", BUILD_DIR,
           "--cache", "disabled",
           "--profile", "release", "-j", "2", "./perfbench/perfbench.exe"]
    try:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=900)
    except (OSError, subprocess.TimeoutExpired) as err:
        print("perfbench: build failed: %s" % err, file=sys.stderr)
        return False
    if done.returncode != 0 or not os.path.isfile(EXE):
        print("perfbench: build failed", file=sys.stderr)
        return False
    return True


def run_one(args):
    """Run the harness; return its exit code and standard output. A run
    that outlives RUN_TIMEOUT is killed and reported as failed."""
    try:
        done = subprocess.run([EXE] + args, stdout=subprocess.PIPE,
                              stderr=sys.stderr, text=True,
                              timeout=RUN_TIMEOUT)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 3, ""
    return done.returncode, done.stdout


def option(args, name, default):
    if name in args:
        i = args.index(name)
        if i + 1 < len(args):
            return args[i + 1]
    return default


def report(args):
    seed = option(args, "--seed", "1")
    seconds = option(args, "--seconds", "20")
    code, out = run_one(["--fidelity", "--seed", seed])
    sys.stdout.write(out)
    if code != 0:
        return 1
    for workload in WORKLOADS:
        results = {}
        for trace in ("0", "1"):
            code, out = run_one(["--workload", workload, "--seed", seed,
                                 "--seconds", seconds, "--trace", trace])
            lines = out.strip().splitlines()
            if code != 0 or not lines:
                print("perfbench: %s trace %s failed" % (workload, trace),
                      file=sys.stderr)
                return 1
            print("\n".join(lines[:-1]))
            results[trace] = json.loads(lines[-1])
        untraced = results["0"]["metrics"]["job_s_p50"]["value"]
        traced = [l for l in out.splitlines() if l.startswith("  traced job_s_p50")]
        if traced:
            overhead = float(traced[0].split()[2]) / untraced
            print("%s tracing overhead (traced / untraced job_s_p50): %.4f\n"
                  % (workload, overhead))
    return 0


def main():
    args = sys.argv[1:]
    if not build():
        return 2
    if "--report" in args:
        return report(args)
    code, out = run_one(args)
    sys.stdout.write(out)
    sys.stdout.flush()
    return code


if __name__ == "__main__":
    sys.exit(main())
