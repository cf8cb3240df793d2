#!/usr/bin/env python3
"""Kills dapsp_service mid-run in durable mode and resumes it (stdlib only).

Usage: test_durable_cli.py <path to dapsp_service>

A reference run (--durable-dir, --ckpt-dump) goes straight through. A second
run in a fresh directory exits 42 right after update 13 (--kill-at 13); a
third run on that directory resumes it (--recover) and dumps its final
checkpoint. The two dumps must be byte-identical: durable kill and recover
resumes bit for bit.
"""
import os
import subprocess
import sys
import tempfile

FLAGS = ["--universe", "12", "--updates", "24", "--seed", "7",
         "--chaos", "0.05", "--checkpoint-every", "6", "--quiet"]


def run(svc, *args):
    proc = subprocess.run([svc, *FLAGS, *args], stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True)
    return proc.returncode, proc.stderr


def main():
    svc = sys.argv[1]
    failures = []
    with tempfile.TemporaryDirectory() as tmp:
        ref = os.path.join(tmp, "ref.bin")
        rec = os.path.join(tmp, "rec.bin")
        run_dir = os.path.join(tmp, "run")
        code, err = run(svc, "--durable-dir", os.path.join(tmp, "ref"),
                        "--ckpt-dump", ref)
        if code != 0:
            failures.append(f"reference run: exit {code}, expected 0\n{err}")
        code, err = run(svc, "--durable-dir", run_dir, "--kill-at", "13")
        if code != 42:
            failures.append(f"--kill-at 13: exit {code}, expected 42\n{err}")
        code, err = run(svc, "--durable-dir", run_dir, "--recover",
                        "--ckpt-dump", rec)
        if code != 0:
            failures.append(f"--recover: exit {code}, expected 0\n{err}")
        if not failures:
            with open(ref, "rb") as a, open(rec, "rb") as b:
                if a.read() != b.read():
                    failures.append("recovered checkpoint differs from the "
                                    "reference run's")
    for f in failures:
        print(f"FAIL {f}")
    if not failures:
        print("durable kill at update 13 recovered bit-identically")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
