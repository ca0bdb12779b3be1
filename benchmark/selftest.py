#!/usr/bin/env python3
"""Self-tests of the gridpipe benchmark (run by benchmark/CMakeLists.txt).

  selftest.py metrics BINARY
      A --quick pass over every workload in BENCHMARK.json. Every metric
      BENCHMARK.json names is present, finite and carries its unit, every
      end-to-end metric is above zero, and the last stdout line holds
      exactly the requested group (end_to_end with --trace 0, per_layer
      with --trace 1).

  selftest.py corruption BINARY
      The runtimes run a spec whose last stage flips one byte of item 7
      while the oracle stays clean: the checker must fail exactly one item
      on each substrate (fail_frac = 1/N there), and the run must exit 1.
"""
import json
import math
import os
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
    SPEC = json.load(f)
SUBSTRATES = ("threads", "dist", "process")


def run(binary, out, *args):
    """Runs one workload; returns (exit code, last stdout line, --out doc)."""
    proc = subprocess.run([binary, "--quick", "--out", out, *args],
                          capture_output=True, text=True, timeout=170)
    lines = proc.stdout.strip().splitlines()
    line = json.loads(lines[-1]) if lines else None
    with open(out) as f:
        doc = json.load(f)
    return proc.returncode, line, doc


def check_group(where, got, group, errors, exact):
    for metric in SPEC[group]:
        name = metric["name"]
        entry = got.get(name)
        if entry is None:
            errors.append(f"{where}: {name} missing")
            continue
        value = entry.get("value")
        if isinstance(value, bool) or not isinstance(value, (int, float)) \
                or not math.isfinite(value):
            errors.append(f"{where}: {name} = {value!r} is not a finite number")
        elif group == "end_to_end" and value <= 0:
            errors.append(f"{where}: {name} = {value} is not above zero")
        if entry.get("unit") != metric["unit"]:
            errors.append(f"{where}: {name} unit {entry.get('unit')!r}, "
                          f"expected {metric['unit']!r}")
    if exact:
        extra = set(got) - {m["name"] for m in SPEC[group]}
        if extra:
            errors.append(f"{where}: unexpected metrics {sorted(extra)}")


def check_line(where, line, errors):
    if line is None:
        errors.append(f"{where}: no result line")
        return False
    if set(line) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"{where}: result line keys {sorted(line)}")
        return False
    if line["correct"] is not True or line["failed"] != 0 \
            or not isinstance(line["attempted"], int) or line["attempted"] < 1:
        errors.append(f"{where}: correct={line['correct']} "
                      f"attempted={line['attempted']} failed={line['failed']}")
    return True


def metrics(binary, tmp):
    errors = []
    for i, workload in enumerate(w["name"] for w in SPEC["workloads"]):
        out = os.path.join(tmp, f"{workload}.json")
        code, line, doc = run(binary, out, "--workload", workload,
                              "--trace", "1")
        where = f"{workload} --trace 1"
        if code != 0:
            errors.append(f"{where}: exit {code}")
        check_group(where, doc["end_to_end"], "end_to_end", errors, True)
        check_group(where, doc["per_layer"], "per_layer", errors, True)
        if check_line(where, line, errors):
            check_group(where + " line", line["metrics"], "per_layer", errors,
                        True)
        if i == 0:
            code, line, _ = run(binary, out, "--workload", workload,
                                "--trace", "0")
            where = f"{workload} --trace 0"
            if code != 0:
                errors.append(f"{where}: exit {code}")
            if check_line(where, line, errors):
                check_group(where + " line", line["metrics"], "end_to_end",
                            errors, True)
    return errors


def corruption(binary, tmp):
    errors = []
    code, line, doc = run(binary, os.path.join(tmp, "corrupt.json"),
                          "--workload", "flood-small", "--trace", "0",
                          "--corrupt-item", "7")
    if code != 1:
        errors.append(f"exit {code}, expected 1")
    if line is None or line["correct"] is not False:
        errors.append(f"result line does not report the failure: {line}")
    for substrate in SUBSTRATES:
        check = doc["checks"][substrate]
        frac = check["failed"] / check["attempted"]
        print(f"{substrate}: fail_frac {check['failed']}/{check['attempted']}"
              f" = {frac:.6g}")
        if check["reps"] != 1 or check["failed"] != 1:
            errors.append(f"{substrate}: {check['failed']} failed over "
                          f"{check['reps']} reps, expected exactly 1 over 1")
    return errors


def main():
    if len(sys.argv) != 3 or sys.argv[1] not in ("metrics", "corruption"):
        print(__doc__, file=sys.stderr)
        return 2
    test = metrics if sys.argv[1] == "metrics" else corruption
    # CTest runs this from the build directory; keep scratch files there.
    with tempfile.TemporaryDirectory(dir=os.getcwd()) as tmp:
        errors = test(sys.argv[2], tmp)
    for e in errors:
        print("FAIL", e)
    print("ok" if not errors else f"{len(errors)} failure(s)")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
