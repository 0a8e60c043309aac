#!/usr/bin/env python3
"""Runs one bb_ladder workload and prints its result as one JSON line.

Usage, from the repository root:

  python3 ladder/run.py --workload kv-mix-d32 --seed 1 --seconds 8 --trace 0

Builds bb_ladder from this checkout's sources into .bench_build/ladder
(configured once, then rebuilt incrementally), runs the workload with the
given seed and measured window, and prints as the last line of stdout

  {"correct": true, "attempted": N, "failed": N, "metrics": {...}}

holding the end-to-end metrics BENCHMARK.json names (--trace 0) or its
per-layer metrics (--trace 1, which also writes the run's spans to
.bench_build/ladder/spans-<workload>-<seed>.jsonl). The build log and
bb_ladder's human table go to stderr. "correct" is false when an answer
or a validity check failed. Exits non-zero without a result when the
sources are missing or the build or the run fails.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "ladder")
BINARY = os.path.join(BUILD, "bb_ladder")
RUN_TIMEOUT_S = 170
EXIT_INVALID = 3  # bb_ladder: a wrong answer or a failed validity check


def fail(msg):
    sys.stderr.write(f"ladder/run.py: {msg}\n")
    sys.exit(1)


def run_logged(cmd):
    """Runs a build step with its output on stderr; exits on failure."""
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
        fail("command failed: " + " ".join(cmd))


def build():
    # A cache configured for another source tree (a moved checkout)
    # cannot be reused.
    cache = os.path.join(BUILD, "CMakeCache.txt")
    if os.path.isfile(cache):
        with open(cache) as f:
            home = [l.split("=", 1)[1].strip() for l in f
                    if l.startswith("CMAKE_HOME_DIRECTORY:")]
        if home != [HERE]:
            shutil.rmtree(BUILD)
    if not os.path.isfile(cache):
        run_logged(["cmake", "-S", HERE, "-B", BUILD,
                    "-DCMAKE_BUILD_TYPE=Release"])
    run_logged(["cmake", "--build", BUILD, "--target", "bb_ladder",
                "-j", "4"])


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"no simdtree sources under {ROOT}; run from a full checkout")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail(f"unknown workload {args.workload}")
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    build()
    cmd = [BINARY, f"--workload={args.workload}", f"--seed={args.seed}",
           f"--seconds={args.seconds}", "--json"]
    if args.trace:
        cmd.append(f"--trace={BUILD}/spans-{args.workload}-{args.seed}.jsonl")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"bb_ladder did not finish within {RUN_TIMEOUT_S} s")
    sys.stderr.write(proc.stdout)
    if proc.returncode not in (0, EXIT_INVALID):
        fail(f"bb_ladder exited with {proc.returncode}")

    values = {}
    for line in proc.stdout.splitlines():
        if not line.startswith("{"):
            continue
        doc = json.loads(line)
        if doc.get("bench") == "bb_ladder" and \
                doc.get("config") == args.workload:
            values[doc["metric"]] = doc["value"]
    missing = [m["name"] for m in wanted if m["name"] not in values]
    missing += [k for k in ("attempted", "failed") if k not in values]
    if missing:
        fail("bb_ladder did not report " + ", ".join(missing))
    result = {
        "correct": proc.returncode == 0,
        "attempted": int(values["attempted"]),
        "failed": int(values["failed"]),
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }
    print(json.dumps(result))


if __name__ == "__main__":
    main()
