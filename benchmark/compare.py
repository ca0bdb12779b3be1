#!/usr/bin/env python3
"""Compares two gridpipe benchmark results, metric by metric.

  benchmark/compare.py BASE.json NEW.json

Each file is a result of benchmark/run.sh: the all-workloads file, or one
workload's --out file. For every workload both hold, prints each
end-to-end metric of BENCHMARK.json with the base and new values, the
change, the metric's bound and a verdict, then both fail fractions.

Exit status: 0 when nothing regressed; 1 when a metric worsened by more
than its bound or the new fail fraction rose; 2 when the two results were
measured in different contexts (cores, CPU model, compiler, build type),
which makes their numbers incomparable: re-run the base on this host.
"""
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
CONTEXT_KEYS = ("nproc", "cpu_model", "compiler", "build_type")


def load(path):
    with open(path) as f:
        doc = json.load(f)
    return {w["workload"]: w for w in doc.get("workloads", [doc])}


def main():
    if len(sys.argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        spec = json.load(f)
    base, new = load(sys.argv[1]), load(sys.argv[2])
    shared = [w["name"] for w in spec["workloads"]
              if w["name"] in base and w["name"] in new]
    if not shared:
        print("no workload appears in both results", file=sys.stderr)
        return 2

    for name in shared:
        a, b = base[name]["context"], new[name]["context"]
        diff = [k for k in CONTEXT_KEYS if a.get(k) != b.get(k)]
        if diff:
            for k in diff:
                print(f"context differs on {name}: {k} {a.get(k)!r} vs "
                      f"{b.get(k)!r}")
            print("results from different contexts are not comparable; "
                  "re-run the base here")
            return 2

    regressed = False
    print(f"{'workload':15} {'metric':22} {'unit':4} {'base':>12} "
          f"{'new':>12} {'change':>8} {'bound':>6}  verdict")
    for name in shared:
        for m in spec["end_to_end"]:
            old = base[name]["end_to_end"].get(m["name"], {}).get("value")
            cur = new[name]["end_to_end"].get(m["name"], {}).get("value")
            if old is None or cur is None or old == 0:
                print(f"{name:15} {m['name']:22} missing")
                regressed = True
                continue
            change = (cur - old) / old
            worse = change if m["better"] == "lower" else -change
            verdict = "ok" if worse <= m["bound"] else "REGRESSION"
            regressed |= verdict != "ok"
            print(f"{name:15} {m['name']:22} {m['unit']:4} {old:12.6g} "
                  f"{cur:12.6g} {change:+8.1%} {m['bound']:6.0%}  {verdict}")
        fa, fb = base[name]["fail_frac"], new[name]["fail_frac"]
        verdict = "ok" if fb <= fa else "REGRESSION"
        regressed |= verdict != "ok"
        print(f"{name:15} {'fail_frac':22} {'':4} {fa:12.6g} {fb:12.6g} "
              f"{'':8} {'0':>6}  {verdict}")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
