#!/usr/bin/env python3
"""Runs scripts/bench_compare.py on two fixture pairs (stdlib only).

tests/fixtures/bench_compare holds a parent result and two changes: one
within every BENCHMARK.json bound (ops_per_s 10% lower against a 25% bound,
peak_rss_mib 7.7% higher against a 10% bound), and one whose ops_per_s
fell 30%. The first must exit 0 and the second 1, naming ops_per_s and
nothing else.
"""
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
FIXTURES = os.path.join(ROOT, "tests", "fixtures", "bench_compare")


def run(change):
    cmd = [sys.executable, os.path.join(ROOT, "scripts", "bench_compare.py"),
           os.path.join(FIXTURES, "parent.txt"),
           os.path.join(FIXTURES, change),
           "--spec", os.path.join(ROOT, "BENCHMARK.json")]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    return proc.returncode, proc.stdout


def main():
    failures = []
    code, out = run("pass.txt")
    if code != 0 or "REGRESSION" in out:
        failures.append(f"pass.txt: exit {code}, expected 0\n{out}")
    if "0.900" not in out:
        failures.append(f"pass.txt: ops_per_s ratio 0.900 not printed\n{out}")
    code, out = run("regress.txt")
    flagged = [l for l in out.splitlines() if l.startswith("REGRESSION:")]
    if code != 1 or len(flagged) != 1 or "ops_per_s" not in flagged[0]:
        failures.append(f"regress.txt: exit {code}, expected 1 with one "
                        f"ops_per_s regression\n{out}")
    for f in failures:
        print(f"FAIL {f}")
    if not failures:
        print("bench_compare: both fixtures behave")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
