#!/usr/bin/env python3
"""Summarize bench_replay_micro results into BENCH_replay_micro.json.

Reads the vendored micro-bench harness's JSON export (the file named by
IHBD_MICROBENCH_JSON when running ./bench_replay_micro) and writes a
machine/core-stamped throughput summary per tier (samples per second for
the replay paths and the grid timeline build, fault events per second for
trace generation), so
cross-PR perf regressions become diffable artifacts instead of log
archaeology. The headline speedups of the fast incremental packed replay
over the serial oracle (same trace, same grid, single thread) are derived
into a `speedups` block.

Usage:
  summarize_replay_bench.py BENCH_replay.json [-o BENCH_replay_micro.json]

Mode is stamped from IHBD_MICROBENCH_MIN_TIME: the harness defaults to
0.05 s per benchmark ("full" for this suite); CI's quick mode passes a
smaller value and is labeled "quick" so its noisier numbers are never
mistaken for tracked ones.
"""

import argparse
import json
import os
import platform

# The harness default (bench/microbench.h min_seconds); anything below it
# is a deliberately shortened CI smoke run.
FULL_MIN_TIME_SECONDS = 0.05

# harness throughput counter -> the tier field it is recorded under
RATE_COUNTERS = {"samples/s": "samples_per_s", "events/s": "events_per_s"}

# fast packed replay -> the serial oracle it is measured against
SPEEDUP_PAIRS = {
    "BM_replay_packed/8": "BM_replay_serial/8",
    "BM_replay_packed/32": "BM_replay_serial/32",
    "BM_replay_packed_quarter_day/32": "BM_replay_serial_quarter_day/32",
    "BM_baseline_packed/0": "BM_baseline_serial/0",
    "BM_baseline_packed/1": "BM_baseline_serial/1",
    "BM_baseline_packed/2": "BM_baseline_serial/2",
    "BM_baseline_packed/3": "BM_baseline_serial/3",
    "BM_baseline_packed/4": "BM_baseline_serial/4",
}


def min_time_seconds() -> float:
    try:
        return float(os.environ.get("IHBD_MICROBENCH_MIN_TIME", ""))
    except ValueError:
        return FULL_MIN_TIME_SECONDS


def summarize(results: list) -> dict:
    # Quick-mode or partial harness runs may omit entries or fields; every
    # lookup degrades gracefully (skip the entry) instead of raising, so
    # the artifact is still written for whatever DID run.
    tiers = {}
    skipped = 0
    for r in results if isinstance(results, list) else []:
        if not isinstance(r, dict):
            skipped += 1
            continue
        counters = r.get("counters", {})
        rates = {field: round(counters[counter], 1)
                 for counter, field in RATE_COUNTERS.items()
                 if counter in counters}
        if not rates:
            continue  # not a tracked tier (no throughput counter)
        name = r.get("name")
        ns_per_iter = r.get("ns_per_iter")
        iterations = r.get("iterations")
        if name is None or ns_per_iter is None or iterations is None:
            skipped += 1
            continue
        tiers[name] = {
            **rates,
            "ns_per_iter": round(ns_per_iter, 1),
            "iterations": iterations,
        }
    if skipped:
        print(f"warning: skipped {skipped} malformed harness entries")
    speedups = {}
    for packed, base in SPEEDUP_PAIRS.items():
        if packed in tiers and base in tiers:
            base_rate = tiers[base]["samples_per_s"]
            if base_rate <= 0:
                continue
            speedups[f"{packed} vs {base}"] = round(
                tiers[packed]["samples_per_s"] / base_rate, 2)
    min_time = min_time_seconds()
    return {
        "bench": "bench_replay_micro",
        "machine": platform.machine(),
        "cores": os.cpu_count(),
        "mode": "full" if min_time >= FULL_MIN_TIME_SECONDS else "quick",
        "min_time_seconds": min_time,
        "tiers": tiers,
        "speedups": speedups,
    }


def main() -> None:
    parser = argparse.ArgumentParser(
        description="Summarize bench_replay_micro JSON into a per-tier "
                    "throughput artifact.")
    parser.add_argument("input", help="BENCH_replay.json from the harness")
    parser.add_argument("-o", "--output", default="BENCH_replay_micro.json")
    args = parser.parse_args()

    with open(args.input) as f:
        results = json.load(f)
    summary = summarize(results)
    with open(args.output, "w") as f:
        json.dump(summary, f, indent=2, sort_keys=False)
        f.write("\n")
    print(f"{args.output}: {len(summary['tiers'])} tiers "
          f"({summary['mode']} mode, {summary['machine']}, "
          f"{summary['cores']} cores)")


if __name__ == "__main__":
    main()
