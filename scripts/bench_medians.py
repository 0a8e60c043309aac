#!/usr/bin/env python3
"""Writes a trajectory point: the median of repeated ladder runs.

One run of the ladder can land tens of percent away from the median of
ten runs of the same tree (ladder/README.md, "Run-to-run spread"), so a
BENCH_*.json trajectory point holds medians. Input: for each workload,
a file of `ladder/run.py` result lines (the JSON object it prints last,
one run per line). Output, on stdout, in the bb_ladder --json format
that scripts/compare_bench_json.py reads: one line per workload and
metric, holding the median over the runs of every end-to-end metric,
`attempted`, `failed`, `fail_frac`, `wrong` (0 when every run was
correct, else the count of runs that were not) and `runs`.

Usage:
  python3 ladder/run.py --workload kv-mix-d32 --seed 1 --seconds 20 \\
      --trace 0 | tail -1 >> kv-mix-d32.jsonl    # repeat per run
  scripts/bench_medians.py kv-mix-d32=kv-mix-d32.jsonl \\
      embed-batch-16m=embed-batch-16m.jsonl \\
      embed-rw-64k=embed-rw-64k.jsonl > BENCH_19.json
"""

import json
import statistics
import sys


def point(workload, metric, value):
    return json.dumps({"bench": "bb_ladder", "config": workload,
                       "metric": metric, "value": value})


def medians(workload, runs):
    if not runs:
        sys.exit(f"bench_medians.py: no runs for {workload}")
    lines = []
    names = sorted(runs[0]["metrics"])
    for name in names:
        lines.append(point(workload, name, statistics.median(
            r["metrics"][name]["value"] for r in runs)))
    attempted = statistics.median(r["attempted"] for r in runs)
    failed = statistics.median(r["failed"] for r in runs)
    lines.append(point(workload, "attempted", attempted))
    lines.append(point(workload, "failed", failed))
    lines.append(point(workload, "fail_frac",
                       failed / attempted if attempted else 0.0))
    lines.append(point(workload, "wrong",
                       sum(1 for r in runs if not r["correct"])))
    lines.append(point(workload, "runs", len(runs)))
    return lines


def main():
    if len(sys.argv) < 2:
        sys.exit(__doc__)
    for arg in sys.argv[1:]:
        workload, _, path = arg.partition("=")
        if not path:
            sys.exit(f"bench_medians.py: expected WORKLOAD=FILE, got {arg}")
        with open(path) as f:
            runs = [json.loads(line) for line in f if line.strip()]
        print("\n".join(medians(workload, runs)))


if __name__ == "__main__":
    main()
