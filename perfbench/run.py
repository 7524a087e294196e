#!/usr/bin/env python3
"""Builds the optimizer library and the benchmark program from source, then
runs one workload.

    python3 perfbench/run.py --workload uniform-20k --seed 61 --seconds 25 --trace 0
    python3 perfbench/run.py --selftest

The build goes to .bench_build/ at the repository root and is reused by
later runs.  Build output goes to stderr; the program's report goes to
stdout, whose last line is the JSON result.  --selftest arms the rae-flip
fault on small versions of the two Table 1-3 workloads and passes only if
the correctness gate reports failures there (and none without the fault).
See perfbench/README.md.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "perfbench")
RUN_TIMEOUT_S = 170


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: library sources (src/) not found next to perfbench/")
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", BUILD, "--target", "perfbench",
                  "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            sys.exit("perfbench: build failed: " + " ".join(cmd))


def run_bench(args):
    """Runs the benchmark program; returns (exit code, stdout text)."""
    try:
        proc = subprocess.run([BINARY] + args, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: run exceeded %d s" % RUN_TIMEOUT_S)
    return proc.returncode, proc.stdout


def selftest():
    ok = True
    for workload in ("uniform-20k", "corpus-guarded"):
        for inject in (False, True):
            args = ["--workload", workload, "--seed", "61", "--seconds",
                    "0.1", "--small"] + (["--inject", "rae-flip"] if inject else [])
            _, out = run_bench(args)
            result = json.loads(out.strip().splitlines()[-1])
            frac = result["failed"] / result["attempted"]
            expect = frac > 0 if inject else frac == 0
            ok &= expect
            print("selftest %-15s %-9s failed_frac %.4f  %s" %
                  (workload, "rae-flip" if inject else "no fault", frac,
                   "ok" if expect else "UNEXPECTED"))
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", default="61")
    ap.add_argument("--seconds", default="25")
    ap.add_argument("--trace", default="0", choices=["0", "1"])
    ap.add_argument("--selftest", action="store_true")
    a = ap.parse_args()
    if not a.selftest and not a.workload:
        ap.error("--workload or --selftest is required")

    build()
    if a.selftest:
        return selftest()
    args = ["--workload", a.workload, "--seed", a.seed, "--seconds", a.seconds,
            "--trace", a.trace]
    if a.trace == "1":
        args += ["--spans", os.path.join(
            BUILD, "spans-%s-%s.json" % (a.workload, a.seed))]
    code, out = run_bench(args)
    sys.stdout.write(out)
    return code


if __name__ == "__main__":
    sys.exit(main())
