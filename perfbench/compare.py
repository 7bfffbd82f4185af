#!/usr/bin/env python3
"""Compare two sets of saved benchmark results.

    python3 perfbench/compare.py BASE_DIR NEW_DIR

Each directory holds result-*.json files as bench.exe writes them under
perfbench/out/.  Results whose host fingerprints (cores, OCaml version,
filesystem of the state dir) differ are reported as incomparable and not
compared.  Otherwise, for every workload and metric, the medians of both
sides and their relative change are printed.
"""
import glob
import json
import os
import statistics
import sys


def load(d):
    runs = []
    for path in sorted(glob.glob(os.path.join(d, "result-*.json"))):
        with open(path) as f:
            runs.append(json.load(f))
    return runs


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    base, new = load(sys.argv[1]), load(sys.argv[2])
    hosts = {json.dumps(r["fingerprint"]["host"], sort_keys=True) for r in base + new}
    if len(hosts) != 1:
        print("incomparable: the results come from different hosts:")
        for h in sorted(hosts):
            print("  " + h)
        sys.exit(1)
    for side, runs in (("base", base), ("new", new)):
        steal = statistics.median(r.get("host_steal_frac", 0.0) for r in runs) if runs else 0.0
        note = "  (stolen time above 2%: the host was contended, timings are suspect)" if steal > 0.02 else ""
        print(f"{side}: {len(runs)} runs, median stolen CPU time {100.0 * steal:.1f}%{note}")
    groups = {}
    for side, runs in (("base", base), ("new", new)):
        for r in runs:
            key = (r["fingerprint"]["workload"], r["trace"])
            for name, m in r["result"]["metrics"].items():
                groups.setdefault(key, {}).setdefault(name, {"base": [], "new": [], "unit": m["unit"]})[side].append(
                    m["value"])
    for (workload, trace), metrics in sorted(groups.items()):
        print(f"{workload} ({'traced' if trace else 'end to end'})")
        for name, v in metrics.items():
            if not v["base"] or not v["new"]:
                continue
            b, n = statistics.median(v["base"]), statistics.median(v["new"])
            change = f"{100.0 * (n - b) / b:+.1f}%" if b else "n/a"
            print(f"  {name:40s} {b:12.4f} -> {n:12.4f} {v['unit']:6s} {change}  "
                  f"(runs {len(v['base'])}/{len(v['new'])})")


if __name__ == "__main__":
    main()
