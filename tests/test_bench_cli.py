#!/usr/bin/env python3
"""Bench binaries refuse arguments they do not take (stdlib only).

Usage: test_bench_cli.py <bench binary>...

Each binary runs with --bogus in an empty working directory; those taking
flags with a value also run with a value-taking flag and no value, with a
non-numeric value and with a partly numeric one (a flag whose value is
optional, like bench_engine_perf's --soak, skips the no-value run). Every
run must exit 2, print a usage line and leave the directory empty: a
refused command line never rewrites a committed BENCH_*.json.
"""
import os
import subprocess
import sys
import tempfile

# Flags that take a value, per bench; one of them is given with none.
VALUE_FLAG = {"bench_query": "--n", "bench_resilience": "--n"}
# Flags whose value is optional: only malformed values are refused.
OPTIONAL_VALUE_FLAG = {"bench_engine_perf": "--soak"}


def main():
    failures = []
    for binary in sys.argv[1:]:
        name = os.path.basename(binary)
        cases = [["--bogus"]]
        if name in VALUE_FLAG:
            flag = VALUE_FLAG[name]
            cases += [[flag], [flag, "abc"], [flag, "5x"]]
        if name in OPTIONAL_VALUE_FLAG:
            flag = OPTIONAL_VALUE_FLAG[name]
            cases += [[flag, "abc"], [flag, "5x"]]
        for args in cases:
            with tempfile.TemporaryDirectory() as tmp:
                proc = subprocess.run([binary, *args], cwd=tmp,
                                      stdout=subprocess.PIPE,
                                      stderr=subprocess.PIPE, text=True,
                                      timeout=60)
                left = os.listdir(tmp)
            what = f"{name} {' '.join(args)}"
            if proc.returncode != 2:
                failures.append(f"{what}: exit {proc.returncode}, expected 2")
            if "usage:" not in proc.stderr:
                failures.append(f"{what}: no usage line on stderr")
            if left:
                failures.append(f"{what}: wrote {sorted(left)}")
    for f in failures:
        print(f"FAIL {f}")
    if not failures:
        print(f"{len(sys.argv) - 1} bench binaries refused bad arguments")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
