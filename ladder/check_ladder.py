#!/usr/bin/env python3
"""Smoke check of bb_ladder against BENCHMARK.json.

  python3 ladder/check_ladder.py --binary .bench_build/ladder/bb_ladder

Runs `bb_ladder --smoke --seed=7 --json --trace=<file>` (64K keys and 1 s
windows on every workload, a few seconds in all) and checks that:
  * it exits 0, so every answer and validity check passed;
  * every end-to-end and per-layer metric BENCHMARK.json names is
    emitted, as a finite number, for every workload it names;
  * the spans file parses: every span has its fields, ends after it
    starts, and any parent it names is a span of the same workload;
    every workload has spans, and its ladder rungs L0-L4.
The spans file is written next to the binary. Exits 1 on any failure.
"""

import argparse
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SPAN_KEYS = ("workload", "name", "trace", "span", "parent", "thread",
             "start_ns", "end_ns")
HIST_KEYS = ("workload", "histogram", "count", "mean_ns", "p50_ns",
             "p99_ns", "kept", "self_mean_ns")


def check_metrics(stdout, spec, errors):
    values = {}
    for line in stdout.splitlines():
        if line.startswith("{"):
            doc = json.loads(line)
            if doc.get("bench") == "bb_ladder":
                values[(doc["config"], doc["metric"])] = doc["value"]
    for w in spec["workloads"]:
        for m in spec["end_to_end"] + spec["per_layer"]:
            v = values.get((w["name"], m["name"]))
            if not isinstance(v, (int, float)) or not math.isfinite(v):
                errors.append(f"{w['name']}: metric {m['name']} missing "
                              f"or not a finite number ({v!r})")


def check_spans(path, spec, errors):
    spans, ids = [], {}
    with open(path) as f:
        for n, line in enumerate(f, start=1):
            doc = json.loads(line)
            keys = SPAN_KEYS if "span" in doc else HIST_KEYS
            if any(k not in doc for k in keys):
                errors.append(f"{path}:{n}: missing one of {keys}")
                continue
            if "span" in doc:
                if doc["end_ns"] < doc["start_ns"]:
                    errors.append(f"{path}:{n}: span ends before it starts")
                spans.append(doc)
                ids.setdefault(doc["workload"], set()).add(doc["span"])
    for s in spans:
        if s["parent"] and s["parent"] not in ids[s["workload"]]:
            errors.append(f"{s['workload']}: {s['name']} span {s['span']} "
                          f"names a parent {s['parent']} that was not kept")
    for w in spec["workloads"]:
        names = {s["name"] for s in spans if s["workload"] == w["name"]}
        for rung in range(5):
            if f"ladder.l{rung}" not in names:
                errors.append(f"{w['name']}: no ladder.l{rung} span")
        if not names - {f"ladder.l{r}" for r in range(5)}:
            errors.append(f"{w['name']}: no workload spans")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--binary", required=True)
    args = ap.parse_args()
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        spec = json.load(f)
    spans = os.path.join(os.path.dirname(os.path.abspath(args.binary)),
                         "smoke_spans.jsonl")
    proc = subprocess.run(
        [args.binary, "--smoke", "--seed=7", "--json", f"--trace={spans}"],
        stdout=subprocess.PIPE, text=True, timeout=120)
    errors = []
    if proc.returncode != 0:
        errors.append(f"bb_ladder exited with {proc.returncode}")
    check_metrics(proc.stdout, spec, errors)
    if os.path.isfile(spans):
        check_spans(spans, spec, errors)
    else:
        errors.append(f"no spans file at {spans}")
    for e in errors:
        print("FAIL:", e)
    if errors:
        return 1
    print(f"ok: {len(spec['workloads'])} workloads, "
          f"{len(spec['end_to_end']) + len(spec['per_layer'])} metrics each, "
          f"spans in {spans}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
