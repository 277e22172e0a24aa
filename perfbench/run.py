#!/usr/bin/env python3
"""End-to-end certification benchmark: build, run one workload, print JSON.

Usage, from the root of a checkout:

  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
  python3 perfbench/run.py --smoke

The first form (re)builds the library and the benchmark binary from source
into .bench_build/perfbench, then runs one workload; the binary's last
stdout line is the result object. --smoke runs every workload path for a
moment on the small cached sst_m3 model and checks that each metric named
in BENCHMARK.json is reported with its unit. See perfbench/README.md.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "deept_perfbench")
SMOKE_MODEL = os.path.join("deept-model-cache", "sst_m3.dptm")
# Every workload perfbench.cpp defines, including the ungated yelp_search_4t.
SMOKE_WORKLOADS = ["sst_search_1t", "yelp_search_4t", "sst_combined_batch_4t"]


def build():
    """Configures once and builds incrementally; output goes to stderr."""
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"),
                      "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "deept_perfbench",
                  "-j", "4"])
    for cmd in steps:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout)
            sys.stderr.write("perfbench: build failed: %s\n" % " ".join(cmd))
            sys.exit(1)


def run_binary(args, capture=False):
    """Runs the binary from the checkout root and waits for it to end."""
    cmd = [BINARY] + args
    proc = subprocess.Popen(cmd, cwd=ROOT, text=True,
                            stdout=subprocess.PIPE if capture else None)
    try:
        out, _ = proc.communicate()
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    return proc.returncode, out


def smoke():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    problems = []
    for workload in SMOKE_WORKLOADS:
        for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
            code, out = run_binary(
                ["--workload", workload, "--seed", "3",
                 "--seconds", "0.2", "--trace", trace,
                 "--smoke-model", SMOKE_MODEL], capture=True)
            where = "%s --trace %s" % (workload, trace)
            if code != 0:
                problems.append("%s: exit code %d" % (where, code))
                continue
            result = json.loads(out.strip().splitlines()[-1])
            if not result["correct"] or result["failed"]:
                problems.append("%s: outputs not correct" % where)
            metrics = result["metrics"]
            for m in spec[key]:
                got = metrics.get(m["name"])
                if got is None:
                    problems.append("%s: %s missing" % (where, m["name"]))
                elif got.get("unit") != m["unit"]:
                    problems.append("%s: %s has unit %r, expected %r"
                                    % (where, m["name"], got.get("unit"),
                                       m["unit"]))
            print("smoke %-36s %d metrics, %d queries" %
                  (where, len(metrics), result["attempted"]))
    for p in problems:
        print("SMOKE FAILED: " + p)
    return 1 if problems else 0


def main():
    build()
    if sys.argv[1:] == ["--smoke"]:
        sys.exit(smoke())
    code, _ = run_binary(sys.argv[1:])
    sys.exit(code)


if __name__ == "__main__":
    main()
