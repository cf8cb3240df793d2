#!/usr/bin/env python3
"""Compare two perfbench/run.py results against BENCHMARK.json's bounds.

Usage: bench_compare.py PARENT CHANGE [--spec BENCHMARK.json]

PARENT and CHANGE are files holding the output of one perfbench/run.py run
each (run from the parent commit and from the change); the last line of
each file that parses as a JSON object is the result. For every metric the
two results share, prints the parent value, the change value and their
ratio change / parent. A metric that BENCHMARK.json lists under
"end_to_end" has a bound: it regresses when it is worse than the parent by
more than that fraction (above parent * (1 + bound) when lower is better,
below parent * (1 - bound) when higher is better). Per-layer metrics have no
bound and are only printed. A change whose result is not "correct", or
whose share of failed operations is larger than the parent's, also
regresses. BENCHMARK.json is read, never written.

Exit status: 0 when nothing regressed, 1 when something did, 2 when an
input cannot be read.
"""
import argparse
import json
import sys


def last_result(path):
    """The last line of `path` that parses as a JSON object."""
    with open(path) as f:
        lines = f.read().splitlines()
    for line in reversed(lines):
        line = line.strip()
        if not line.startswith("{"):
            continue
        try:
            res = json.loads(line)
        except json.JSONDecodeError:
            continue
        if isinstance(res, dict) and "metrics" in res:
            return res
    raise ValueError(f"{path}: no perfbench/run.py result line")


def load_spec(path):
    """name -> (better, bound or None) for every declared metric."""
    with open(path) as f:
        spec = json.load(f)
    out = {}
    for section, bounded in (("end_to_end", True), ("per_layer", False)):
        for m in spec.get(section, []):
            out[m["name"]] = (m["better"], m["bound"] if bounded else None)
    return out


def failed_share(res):
    attempted = res.get("attempted", 0) or 0
    return (res.get("failed", 0) or 0) / attempted if attempted else 0.0


def compare(parent, change, spec):
    """Returns (report lines, regression messages)."""
    lines, regressions = [], []
    lines.append(f"{'metric':<34} {'parent':>14} {'change':>14} "
                 f"{'ratio':>8}  verdict")
    for name, pm in parent["metrics"].items():
        cm = change["metrics"].get(name)
        if cm is None:
            continue
        p, c = float(pm["value"]), float(cm["value"])
        better, bound = spec.get(name, ("lower", None))
        ratio = f"{c / p:8.3f}" if p != 0 else f"{'n/a':>8}"
        verdict = ""
        if bound is not None:
            if better == "lower":
                worse = c > p * (1 + bound)
            else:
                worse = c < p * (1 - bound)
            verdict = f"REGRESSION (bound {bound:g})" if worse else "ok"
            if worse:
                regressions.append(f"{name}: {p:g} -> {c:g}, worse than its "
                                   f"{bound:g} bound ({better} is better)")
        lines.append(f"{name:<34} {p:14.6g} {c:14.6g} {ratio}  {verdict}")
    if not change.get("correct", False):
        regressions.append("the change's result is not correct")
    if failed_share(change) > failed_share(parent):
        regressions.append(
            f"failed share {failed_share(parent):.4f} -> "
            f"{failed_share(change):.4f}")
    return lines, regressions


def main(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent")
    ap.add_argument("change")
    ap.add_argument("--spec", default="BENCHMARK.json")
    args = ap.parse_args(argv)
    try:
        parent = last_result(args.parent)
        change = last_result(args.change)
        spec = load_spec(args.spec)
    except (OSError, ValueError, KeyError) as e:
        print(f"bench_compare: {e}", file=sys.stderr)
        return 2
    lines, regressions = compare(parent, change, spec)
    print("\n".join(lines))
    for r in regressions:
        print(f"REGRESSION: {r}")
    if not regressions:
        print("no regression beyond a bound")
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
