#!/usr/bin/env python3
"""Run the whole benchmark matrix and print every metric by name.

    python3 perfbench/matrix.py                 # each workload once, plus a traced run
    python3 perfbench/matrix.py --runs 10 --no-trace   # spread check over ten seeds

Every run is a fresh ``run.py`` process, one at a time.  For each
workload and end-to-end metric the table gives the unit, the number of
samples (rounds pooled over runs for ``time_to_result_s``, probes for
``setup_s``, runs for ``peak_rss_mb``), the median, the highest
percentile with at least ten samples beyond it, and the spread of the
per-run values (quartile distance over median, ``statistics.quantiles``)
next to the metric's bound.  ``failed_share`` is failed over attempted
operations.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys

from run import HERE, ROOT, high_percentile


def run_once(workload, seed, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                          timeout=600, check=False)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    record = json.loads((HERE / "out" / f"{workload}-seed{seed}-trace{trace}.json")
                        .read_text())
    return result, record


def spread(values):
    if len(values) < 2:
        return float("nan")
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=1)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--no-trace", action="store_true", help="skip the traced run")
    args = ap.parse_args(argv)

    all_correct = True
    for workload in (w["name"] for w in bench["workloads"]):
        results = [run_once(workload, args.seed + i, 0)
                   for i in range(args.runs)]
        attempted = sum(r["attempted"] for r, _ in results)
        failed = sum(r["failed"] for r, _ in results)
        all_correct &= all(r["correct"] for r, _ in results)
        print(f"\n{workload}: {args.runs} run(s) of {bench['run_seconds']} s, seeds "
              f"{args.seed}..{args.seed + args.runs - 1}")
        print(f"  {'metric':<18} {'unit':<6} {'n':>4} {'median':>10} {'high pct':>16} "
              f"{'run spread':>10} {'bound':>6}")
        pooled = {
            "time_to_result_s": [x for _, rec in results
                                 for x in rec["time_to_result_s_samples"]],
            "setup_s": [x for _, rec in results for x in rec["setup_s_samples"]],
        }
        for m in bench["end_to_end"]:
            per_run = [r["metrics"][m["name"]]["value"] for r, _ in results]
            samples = pooled.get(m["name"], per_run)
            print(f"  {m['name']:<18} {m['unit']:<6} {len(samples):>4} "
                  f"{statistics.median(samples):>10.4f} {high_percentile(samples):>16} "
                  f"{spread(per_run):>10.4f} {m['bound']:>6}")
        print(f"  {'failed_share':<18} {'1':<6} {attempted:>4} "
              f"{failed / attempted:>10.4f}   ({failed} failed of {attempted} operations)")
        for name in ("time_to_result_wall_s", "setup_wall_s", "host_probe_s"):
            xs = [x for _, rec in results for x in rec[f"{name}_samples"]]
            print(f"  {name:<18} {'s':<6} {len(xs):>4} {statistics.median(xs):>10.4f}"
                  f" {high_percentile(xs):>16}   (not a metric)")
        if args.no_trace:
            continue
        result, _ = run_once(workload, args.seed, 1)
        all_correct &= result["correct"]
        print(f"  traced run, seed {args.seed}:")
        for m in bench["per_layer"]:
            value = result["metrics"][m["name"]]["value"]
            print(f"    {m['name']:<28} {value:>16.6g} {m['unit']}")
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
