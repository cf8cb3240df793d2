#!/usr/bin/env python3
"""Builds and runs the dapsp end-to-end benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The first run configures and compiles
perfbench/ (the library sources under src/ plus the benchmark binary) into
$CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench; later runs only
rebuild what changed. The benchmark binary runs the workload and checks every
result against the sequential oracle; this script prints a table of every
metric with its unit and sample count, then, as its last line, one JSON
object with the metrics BENCHMARK.json declares: the end_to_end ones for
--trace 0, the per_layer ones for --trace 1. Exit status is 0 only when the
build succeeded and every oracle and determinism check held.
"""

import argparse
import json
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build(build_dir):
    """Configures (once) and builds the benchmark binary; returns its path or None."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", BENCH_DIR, "-B", build_dir,
               "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return None
    cmd = ["cmake", "--build", build_dir, "--target", "dapsp_perfbench",
           "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
        return None
    return os.path.join(build_dir, "dapsp_perfbench")


def declared_metrics(trace):
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    return spec["per_layer" if trace else "end_to_end"]


def table(title, metrics):
    print(title)
    for name, m in metrics.items():
        note = f"  ({m['note']})" if m.get("note") else ""
        print(f"  {name:<34} {m['value']:>16.6g} {m['unit']:<6} "
              f"n={m['samples']}{note}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    binary = build(os.path.join(build_root, "perfbench"))
    if binary is None:
        log("perfbench: build failed")
        return 1
    declared = declared_metrics(args.trace)

    work_dir = os.path.abspath(os.path.join(build_root, "perfbench-work"))
    os.makedirs(work_dir, exist_ok=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", work_dir]
    if args.trace:
        trace_out = os.path.join(
            build_root, f"perfbench-trace-{args.workload}-{args.seed}.jsonl")
        cmd += ["--trace-out", trace_out]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"perfbench: {args.workload} did not finish in {RUN_TIMEOUT_S} s")
        return 1
    lines = proc.stdout.strip().splitlines()
    if not lines:
        log(f"perfbench: dapsp_perfbench exited {proc.returncode} without a result")
        return 1
    res = json.loads(lines[-1])

    ctx = res["context"]
    print(f"# {args.workload} seed={ctx['seed']} seconds={ctx['seconds']} "
          f"trace={ctx['trace']} build={ctx['build_type']} "
          f"hardware_threads={ctx['hardware_threads']} "
          f"workload_threads={ctx['workload_threads']} "
          f"calib_ms start={ctx['calib_ms_start']:.1f} "
          f"end={ctx['calib_ms_end']:.1f}")
    table("end-to-end" + (" (untraced half)" if args.trace else ""),
          res["end_to_end"])
    if args.trace:
        table("per-layer (traced)", res["per_layer"])

    measured = res["per_layer" if args.trace else "end_to_end"]
    errors = list(res["errors"])
    metrics = {}
    for spec in declared:
        name, unit = spec["name"], spec["unit"]
        m = measured.get(name)
        if m is None and args.trace:
            # A layer this workload bypasses does no work.
            m = {"value": 0, "unit": unit}
        if m is None:
            errors.append(f"{name} not measured")
            continue
        if m["unit"] != unit:
            errors.append(f"{name}: unit {m['unit']}, declared {unit}")
        metrics[name] = {"value": m["value"], "unit": unit}
    for e in errors:
        print(f"error: {e}")

    correct = bool(res["correct"]) and not errors and proc.returncode == 0
    print(json.dumps({"correct": correct, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
