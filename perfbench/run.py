#!/usr/bin/env python3
"""Repository benchmark: one command per run.

    python3 perfbench/run.py --workload ctrl_steady --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --selftest

Each run builds the ihbd library and the benchmark binary from the
checkout's sources (Release, into .bench_build/perfbench; later runs only
re-check the build), runs one workload in its own process for --seconds,
prints every metric with its unit, the output checks, the simulated
statistics and a stamp (machine, cores, build type, compiler, commit, seed),
and ends with one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics of BENCHMARK.json; --trace 1 runs
with observability on and reports the per-layer split (what each layer
metric means, which end-to-end metric it should move and on which workload:
perfbench/layers.json). A layer a workload does not exercise reports 0.
A traced run also writes its Perfetto spans to
.bench_build/perfbench/traces/<workload>-seed<seed>.json.
"""

import argparse
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = ROOT / "perfbench"
BUILD = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD / "perfbench"

# Seeds: tune and compare on DEFAULT_SEED; a claimed gain must also hold on
# HELDOUT_SEED, which no tuning of the benchmark or the program has used.
DEFAULT_SEED = 1
HELDOUT_SEED = 20251021

NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT_RE = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
RUN_TIMEOUT_S = 175


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def load_spec():
    with open(ROOT / "BENCHMARK.json") as f:
        spec = json.load(f)
    with open(HERE / "layers.json") as f:
        layers = json.load(f)
    return spec, layers


def spec_errors(spec, layers):
    """Everything wrong with BENCHMARK.json + layers.json, as messages."""
    errors = []
    workloads = [w["name"] for w in spec["workloads"]]
    e2e = [m["name"] for m in spec["end_to_end"]]
    per_layer = [m["name"] for m in spec["per_layer"]]
    names = workloads + e2e + per_layer
    for name in names:
        if not NAME_RE.fullmatch(name):
            errors.append(f"invalid name {name!r}")
    if len(set(names)) != len(names):
        errors.append("a name is used twice")
    for m in spec["end_to_end"] + spec["per_layer"]:
        if not UNIT_RE.fullmatch(m["unit"]):
            errors.append(f"invalid unit {m['unit']!r} of {m['name']}")
    if set(per_layer) != set(layers):
        errors.append("layers.json and BENCHMARK.json per_layer differ: "
                      f"{sorted(set(per_layer) ^ set(layers))}")
    for name, entry in layers.items():
        for target in entry["moves"]:
            if target not in e2e:
                errors.append(f"{name} moves unknown metric {target}")
        for w in entry["on"] + entry["exercised_by"]:
            if w not in workloads:
                errors.append(f"{name} names unknown workload {w}")
    return errors


def selftest():
    """Name/unit validation cases plus the benchmark binary's helper self-test."""
    failures = 0
    cases = [("wall_s", True), ("topo.samples_per_s.NVL-576", True),
             ("9lives", True), ("a" * 64, True), ("a" * 65, False),
             ("", False), ("_x", False), (".x", False), ("a b", False),
             ("a/b", False), ("p99%", False)]
    for name, ok in cases:
        if bool(NAME_RE.fullmatch(name)) != ok:
            log(f"selftest FAILED: name {name!r} should be "
                f"{'valid' if ok else 'invalid'}")
            failures += 1
    for unit, ok in [("ms", True), ("1/s", True), ("%", True),
                     ("MiB", True), ("a" * 17, False), ("m s", False)]:
        if bool(UNIT_RE.fullmatch(unit)) != ok:
            log(f"selftest FAILED: unit {unit!r}")
            failures += 1
    for err in spec_errors(*load_spec()):
        log(f"selftest FAILED: {err}")
        failures += 1
    proc = subprocess.run([str(BINARY), "--selftest"], stdout=subprocess.PIPE,
                          text=True)
    if proc.returncode != 0:
        log("selftest FAILED: benchmark binary helper self-test")
        failures += 1
    return failures


def build():
    if not (ROOT / "src").is_dir() or not (HERE / "CMakeLists.txt").is_file():
        log(f"perfbench: no library sources under {ROOT / 'src'}")
        sys.exit(2)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))  # bounded memory
    if not (BUILD / "CMakeCache.txt").is_file():
        cfg = ["cmake", "-S", str(HERE), "-B", str(BUILD),
               "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(cfg, stdout=sys.stderr).returncode != 0:
            log("perfbench: cmake configure failed")
            sys.exit(1)
    step = ["cmake", "--build", str(BUILD), "-j", jobs]
    if subprocess.run(step, stdout=sys.stderr).returncode != 0:
        log("perfbench: build failed")
        sys.exit(1)


def git_commit():
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                          text=True)
    return proc.stdout.strip() or "unknown"


def stamp(doc, seed):
    u = os.uname()
    return {
        "machine": f"{u.nodename} {u.sysname} {u.release} {u.machine}",
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "build_type": doc["build_type"],
        "compiler": doc["compiler"],
        "commit": git_commit(),
        "seed": seed,
        "default_seed": DEFAULT_SEED,
        "heldout_seed": HELDOUT_SEED,
        "pool_workers": doc["threads"],
    }


def pick_metrics(spec, layers, doc, workload, traced):
    """The contract's metrics: end-to-end medians, or the per-layer split
    with 0 for layers this workload does not exercise."""
    metrics = {}
    if not traced:
        for m in spec["end_to_end"]:
            d = doc["e2e"][m["name"]]
            if d["n"] == 0 or d["median"] is None or not d["median"] > 0:
                raise ValueError(f"{m['name']} not measured")
            metrics[m["name"]] = {"value": d["median"], "unit": m["unit"]}
        return metrics
    for m in spec["per_layer"]:
        name = m["name"]
        if workload in layers[name]["exercised_by"]:
            value = doc["layers"].get(name)
            if value is None or not math.isfinite(value):
                raise ValueError(f"{name} not measured")
        else:
            value = 0.0
        metrics[name] = {"value": value, "unit": m["unit"]}
    extra = set(doc["layers"]) - set(metrics)
    if extra:
        raise ValueError(f"benchmark binary reported unlisted metrics {sorted(extra)}")
    return metrics


def report(spec, layers, doc, metrics, st, traced, trace_file):
    print(f"== perfbench {doc['workload']} seed={st['seed']} "
          f"{'traced' if traced else 'untraced'} run, {doc['reps']} "
          f"repetition(s) in {doc['seconds']:g} s")
    for k, v in st.items():
        print(f"   {k}: {v}")
    print(f"-- output checks: {doc['attempted']} ops attempted, "
          f"{doc['failed']} failed (failed_frac "
          f"{doc['failed'] / max(1, doc['attempted']):.6f})")
    for name, ok in doc["checks"].items():
        print(f"   {'ok  ' if ok else 'FAIL'} {name}")
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    print("-- end-to-end at the reference host speed (median [q1, q3] over n)")
    for name, d in doc["e2e"].items():
        print(f"   {name:<18} {d['median']:.6g} {units[name]}  "
              f"[{d['q1']:.6g}, {d['q3']:.6g}] n={d['n']}")
    print("-- host clocks (reported, not scored)")
    for name, unit in (("wall_s", "s"), ("cpu_s", "s"), ("speed", "x")):
        d = doc["host"][name]
        print(f"   host {name:<13} {d['median']:.6g} {unit}  "
              f"[{d['q1']:.6g}, {d['q3']:.6g}] n={d['n']}")
    print(f"   tick samples per repetition: {doc['tick_samples']} "
          f"(p90 {'has' if doc['tick_p90_supported'] else 'LACKS'} "
          f">= 10 samples beyond it)")
    if doc["workload"] == "replay_mc":
        print("   (replay_mc: sim_events_per_s counts replay samples; a tick "
              "is one grid cell's replay)")
    if traced:
        print("-- per-layer split (metric value unit -> should move)")
        for name, m in metrics.items():
            entry = layers[name]
            mark = "" if doc["workload"] in entry["exercised_by"] else \
                "  (not exercised)"
            print(f"   {name:<36} {m['value']:.6g} {m['unit']} -> "
                  f"{','.join(entry['moves'])} on {','.join(entry['on'])}"
                  f"{mark}")
        if doc["workload"].startswith("ctrl"):
            share = sum(metrics[f"{l}.busy_frac"]["value"]
                        for l in ("ocstrx", "orch", "evsim"))
            print(f"   ocstrx+orch+evsim busy vs ctrl.run_s: {share:.3f} "
                  f"(ocstrx {metrics['ocstrx.busy_frac']['value']:.3f})")
        print(f"   spans: {trace_file}")
    print("-- simulated statistics (reported, not scored)")
    for k, v in doc["sim"].items():
        print(f"   {k}: {v}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()

    build()
    if selftest() != 0:
        log("perfbench: self-test failed")
        return 1
    if args.selftest:
        print("selftest ok")
        return 0

    spec, layers = load_spec()
    workloads = [w["name"] for w in spec["workloads"]]
    if args.workload not in workloads:
        ap.error(f"--workload must be one of {workloads}")
    seconds = args.seconds if args.seconds else spec["run_seconds"]
    traced = args.trace == 1
    trace_file = BUILD / "traces" / f"{args.workload}-seed{args.seed}.json"
    cmd = [str(BINARY), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(seconds), "--trace", str(args.trace)]
    if traced:
        trace_file.parent.mkdir(parents=True, exist_ok=True)
        cmd += ["--trace-out", str(trace_file)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"perfbench: {args.workload} exceeded {RUN_TIMEOUT_S} s")
        return 1
    if proc.returncode != 0:
        log(f"perfbench: benchmark binary exited with {proc.returncode}")
        return 1
    doc = json.loads(proc.stdout.strip().splitlines()[-1])
    try:
        metrics = pick_metrics(spec, layers, doc, args.workload, traced)
    except ValueError as err:
        log(f"perfbench: {err}")
        return 1
    report(spec, layers, doc, metrics, stamp(doc, args.seed), traced,
           trace_file)
    print(json.dumps({"correct": bool(doc["correct"]),
                      "attempted": int(doc["attempted"]),
                      "failed": int(doc["failed"]),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
