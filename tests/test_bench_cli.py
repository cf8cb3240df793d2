#!/usr/bin/env python3
"""Bench binaries and example CLIs refuse arguments they do not take
(stdlib only).

Usage: test_bench_cli.py <bench or example binary>...

Each bench runs with --bogus in an empty working directory; those taking
flags with a value also run with a value-taking flag and no value, with a
non-numeric value and with a partly numeric one (a flag whose value is
optional, like bench_engine_perf's --soak, skips the no-value run). Each
example CLI (dapsp_cli, dapsp_service, query_server) runs its own command
lines, each with one argument it does not take or one malformed number: a
non-number, a partly numeric value, or a negative count that would wrap to
2^64 - 1. Every run must exit 2, print a usage line and write nothing: a
refused command line never rewrites a committed BENCH_*.json and never
starts a run.
"""
import os
import subprocess
import sys
import tempfile

# Flags that take a value, per bench; one of them is given with none.
VALUE_FLAG = {"bench_query": "--n"}
# Flags whose value is optional: only malformed values are refused.
OPTIONAL_VALUE_FLAG = {"bench_engine_perf": "--soak"}

# A command run in the working directory before the cases, and the files it
# leaves there (the cases may read them, and must add nothing).
SETUP = {"query_server": ["--export", "s.dqry", "--universe", "8"]}
SNAP = ["--snapshot", "s.dqry"]
# Whole command lines of the example CLIs.
CLI_CASES = {
    "dapsp_cli": [
        ["apsp", "--bogus"],
        ["apsp", "-g", "g.txt", "--drop", "abc"],
        ["apsp", "-g", "g.txt", "--crash", "3@x"],
        ["gen", "path", "5x"],
    ],
    "dapsp_service": [
        ["--bogus"],
        ["--universe"],
        ["--universe", "abc"],
        ["--universe", "5x"],
        ["--updates", "-1", "--universe", "8"],
        ["--breaker", "2@3x"],
    ],
    "query_server": [
        [*SNAP, "--bogus"],
        [*SNAP, "--query", "abc", "3"],
        [*SNAP, "--ecc", "5x"],
        [*SNAP, "--bench-lookups", "-1"],
    ],
}


def cases_for(name):
    if name in CLI_CASES:
        return CLI_CASES[name]
    cases = [["--bogus"]]
    if name in VALUE_FLAG:
        flag = VALUE_FLAG[name]
        cases += [[flag], [flag, "abc"], [flag, "5x"]]
    if name in OPTIONAL_VALUE_FLAG:
        flag = OPTIONAL_VALUE_FLAG[name]
        cases += [[flag, "abc"], [flag, "5x"]]
    return cases


def run(binary, args, cwd):
    """Exit code and stderr, or None for a run killed at its timeout."""
    try:
        proc = subprocess.run([binary, *args], cwd=cwd,
                              stdin=subprocess.DEVNULL,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              text=True, timeout=30)
    except subprocess.TimeoutExpired:
        return None
    return proc.returncode, proc.stderr


def main():
    failures = []
    for binary in sys.argv[1:]:
        name = os.path.basename(binary)
        for args in cases_for(name):
            what = f"{name} {' '.join(args)}"
            with tempfile.TemporaryDirectory() as tmp:
                if name in SETUP:
                    setup = run(binary, SETUP[name], tmp)
                    if setup is None or setup[0] != 0:
                        failures.append(f"{what}: setup run failed")
                        continue
                before = set(os.listdir(tmp))
                result = run(binary, args, tmp)
                left = set(os.listdir(tmp)) - before
            if result is None:
                failures.append(f"{what}: still running after 30 s")
                continue
            code, stderr = result
            if code != 2:
                failures.append(f"{what}: exit {code}, expected 2")
            if "usage:" not in stderr:
                failures.append(f"{what}: no usage line on stderr")
            if left:
                failures.append(f"{what}: wrote {sorted(left)}")
    for f in failures:
        print(f"FAIL {f}")
    if not failures:
        print(f"{len(sys.argv) - 1} binaries refused bad arguments")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
