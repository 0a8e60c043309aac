#!/usr/bin/env python3
"""Noise-aware bench-regression gate over JSON-line bench output.

Compares a candidate bench run against a committed baseline (both in
the repo's JSON-line format, bench/bench_util.h EmitJson: one
{"bench":..,"config":..,"metric":..,"value":..} object per line) and
exits non-zero when a gated metric regressed beyond its class
tolerance. CI runs it against bench/baselines/*.json after the smoke
benches (see .github/workflows/ci.yml).

Metric classes — the whole point of this gate being trustworthy on
shared CI runners is that not every number deserves the same leash:

  deterministic  counts the machine cannot change run-to-run at fixed
                 workload (node visits and prefetched lines per query,
                 visit reduction, batch shares): tolerance --det-tol
                 (default 2%).
  timing         throughput and central-tendency latency (qps,
                 mlookups_per_s, cycles_per_lookup, p50_ns): direction
                 aware, tolerance --timing-tol (default 35% — CI
                 neighbors are loud; a real 2x regression still trips).
  tail           extreme percentiles and maxima (p99_ns, p999_ns,
                 max_ns, *burn_rate): reported, never gated — one
                 scheduler hiccup in a 2 s smoke moves them 10x.
  unknown        anything else: reported, never gated.

Direction is inferred from the metric name (qps/…_per_s up is good;
…_ns/cycles/…_pct down is good). A metric present in the baseline but
missing from the candidate fails the gate — silent coverage loss is a
regression too. New candidate metrics are listed and pass.

Usage:
  ./build/bench/bb_batch_lookup --smoke --json > candidate.json
  scripts/compare_bench_json.py bench/baselines/bb_batch_lookup.json \
      candidate.json
  scripts/compare_bench_json.py --self-test
"""

import argparse
import json
import sys

TAIL_SUFFIXES = ("p99_ns", "p999_ns", "max_ns", "burn_rate")
DETERMINISTIC_METRICS = {
    "node_visits_per_query",
    "lines_prefetched_per_query",
    "visit_reduction",
    "keys_per_batch",
    "span_overhead_pct",  # min-of-rounds A/B: stable, but see timing
}
HIGHER_BETTER_HINTS = ("qps", "per_s", "per_sec", "_rate_ok",
                       "efficiency", "utilization", "reduction")
LOWER_BETTER_HINTS = ("_ns", "cycles", "_pct", "_bytes", "visits")


def classify(metric: str) -> str:
    if any(metric.endswith(s) for s in TAIL_SUFFIXES):
        return "tail"
    if metric in DETERMINISTIC_METRICS:
        # span_overhead_pct is min-of-rounds but still a ratio of two
        # timed runs; treat it as timing, not deterministic.
        return "timing" if metric == "span_overhead_pct" else "deterministic"
    if any(h in metric for h in HIGHER_BETTER_HINTS + LOWER_BETTER_HINTS):
        return "timing"
    return "unknown"


def direction(metric: str) -> int:
    """+1 when larger is better, -1 when smaller is better, 0 unknown."""
    if any(h in metric for h in HIGHER_BETTER_HINTS):
        return 1
    if any(h in metric for h in LOWER_BETTER_HINTS):
        return -1
    return 0


def load_metrics(lines) -> dict:
    """(bench, config, metric) -> value; last occurrence wins."""
    out = {}
    for lineno, line in enumerate(lines, start=1):
        stripped = line.strip()
        if not stripped.startswith("{"):
            continue
        try:
            doc = json.loads(stripped)
        except json.JSONDecodeError as err:
            raise ValueError(f"line {lineno}: invalid JSON ({err})")
        if not isinstance(doc, dict):
            continue
        if not all(k in doc for k in ("bench", "config", "metric", "value")):
            continue  # headers, slo objects, registry dumps
        value = doc["value"]
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            continue
        out[(doc["bench"], doc["config"], doc["metric"])] = float(value)
    return out


def compare(baseline: dict, candidate: dict, timing_tol: float,
            det_tol: float, out=sys.stdout) -> int:
    """Prints the comparison; returns the number of gate failures."""
    failures = 0
    rows = []
    for key in sorted(baseline):
        bench, config, metric = key
        base = baseline[key]
        if key not in candidate:
            rows.append((bench, config, metric, base, None, "MISSING", True))
            failures += 1
            continue
        cand = candidate[key]
        cls = classify(metric)
        sign = direction(metric)
        if base != 0:
            rel = (cand - base) / abs(base)
        else:
            rel = 0.0 if cand == 0 else float("inf") * (1 if cand > 0 else -1)
        if cls == "deterministic":
            bad = abs(rel) > det_tol
            verdict = "FAIL(det)" if bad else "ok"
        elif cls == "timing" and sign != 0:
            # A regression is movement AGAINST the good direction
            # beyond tolerance; improvements never fail.
            bad = (-sign * rel) > timing_tol
            verdict = "FAIL" if bad else "ok"
        else:
            bad = False
            verdict = "info"
        rows.append((bench, config, metric, base, cand, verdict, bad))
        if bad:
            failures += 1
    new_keys = sorted(set(candidate) - set(baseline))

    print(f"{'bench':<18} {'config':<34} {'metric':<24} "
          f"{'baseline':>14} {'candidate':>14} {'delta':>9} verdict",
          file=out)
    for bench, config, metric, base, cand, verdict, bad in rows:
        if cand is None:
            print(f"{bench:<18} {config:<34} {metric:<24} "
                  f"{base:>14.4g} {'—':>14} {'—':>9} {verdict}", file=out)
            continue
        rel = (cand - base) / abs(base) if base != 0 else 0.0
        print(f"{bench:<18} {config:<34} {metric:<24} "
              f"{base:>14.4g} {cand:>14.4g} {rel:>+8.1%} {verdict}",
              file=out)
    for bench, config, metric in new_keys:
        print(f"{bench:<18} {config:<34} {metric:<24} "
              f"{'—':>14} {candidate[(bench, config, metric)]:>14.4g} "
              f"{'—':>9} new", file=out)
    print(f"\n{len(rows)} compared, {len(new_keys)} new, "
          f"{failures} failure(s)", file=out)
    return failures


def self_test() -> int:
    """Synthetic fixtures: a clean pair must pass, a 2x qps regression
    and a deterministic drift must fail, a noisy tail must NOT fail."""

    def line(bench, config, metric, value):
        return json.dumps({"bench": bench, "config": config,
                           "metric": metric, "value": value})

    baseline = [
        line("bb_batch_lookup", "b64", "mlookups_per_s", 100.0),
        line("bb_batch_lookup", "b64", "node_visits_per_query", 4.0),
        line("bb_serve", "smoke", "achieved_qps", 2000.0),
        line("bb_serve", "smoke", "p50_ns", 120000.0),
        line("bb_serve", "smoke", "p999_ns", 2e6),
    ]
    clean = [
        line("bb_batch_lookup", "b64", "mlookups_per_s", 95.0),
        line("bb_batch_lookup", "b64", "node_visits_per_query", 4.0),
        line("bb_serve", "smoke", "achieved_qps", 1980.0),
        line("bb_serve", "smoke", "p50_ns", 131000.0),
        line("bb_serve", "smoke", "p999_ns", 1.9e7),  # 10x tail: not gated
    ]
    # The synthetic 2x regression the acceptance criteria demand, plus
    # a deterministic drift (extra node visit) that must also trip.
    regressed = [
        line("bb_batch_lookup", "b64", "mlookups_per_s", 50.0),
        line("bb_batch_lookup", "b64", "node_visits_per_query", 5.0),
        line("bb_serve", "smoke", "achieved_qps", 1000.0),
        line("bb_serve", "smoke", "p50_ns", 240000.0),
        line("bb_serve", "smoke", "p999_ns", 2e6),
    ]

    import io
    sink = io.StringIO()
    base = load_metrics(baseline)
    if compare(base, load_metrics(clean), 0.35, 0.02, out=sink) != 0:
        print("self-test FAILED: clean candidate was gated", file=sys.stderr)
        print(sink.getvalue(), file=sys.stderr)
        return 1
    sink = io.StringIO()
    failures = compare(base, load_metrics(regressed), 0.35, 0.02, out=sink)
    # 2x qps (x2), 2x p50, and the visit drift must all trip.
    if failures < 4:
        print(f"self-test FAILED: 2x regression produced only "
              f"{failures} failures", file=sys.stderr)
        print(sink.getvalue(), file=sys.stderr)
        return 1
    sink = io.StringIO()
    missing = [line("bb_batch_lookup", "b64", "mlookups_per_s", 95.0)]
    if compare(base, load_metrics(missing), 0.35, 0.02, out=sink) == 0:
        print("self-test FAILED: missing metrics were not gated",
              file=sys.stderr)
        return 1
    print("self-test ok")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("baseline", nargs="?",
                        help="baseline JSON-lines file")
    parser.add_argument("candidate", nargs="?",
                        help="candidate JSON-lines file")
    parser.add_argument("--timing-tol", type=float, default=0.35,
                        help="relative tolerance for timing metrics "
                             "(default 0.35)")
    parser.add_argument("--det-tol", type=float, default=0.02,
                        help="relative tolerance for deterministic "
                             "metrics (default 0.02)")
    parser.add_argument("--self-test", action="store_true",
                        help="run the synthetic-fixture self-test")
    args = parser.parse_args()

    if args.self_test:
        return self_test()
    if not args.baseline or not args.candidate:
        parser.error("baseline and candidate files are required "
                     "(or --self-test)")
    try:
        with open(args.baseline) as f:
            baseline = load_metrics(f)
        with open(args.candidate) as f:
            candidate = load_metrics(f)
    except (OSError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    if not baseline:
        print(f"error: no metric lines in baseline {args.baseline}",
              file=sys.stderr)
        return 2
    failures = compare(baseline, candidate, args.timing_tol, args.det_tol)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
