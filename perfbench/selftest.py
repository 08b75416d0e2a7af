#!/usr/bin/env python3
"""Benchmark self-test: a tiny-scale run of every workload, untraced and
traced, through run.py.

    python3 perfbench/selftest.py

Checks that every metric BENCHMARK.json names is emitted with its unit and a
finite value, that every correctness check held, and that each traced run
reports its overhead (traced vs untraced throughput) and how much of op time
its spans cover. Last, it checks that run.py fails without a result line in a
directory holding only BENCHMARK.json and the benchmark's own files. Takes
about a minute once the benchmark is built.
"""
import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = [sys.executable, os.path.join(HERE, "run.py")]

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)

failures = []


def check(cond, what):
    if not cond:
        failures.append(what)
        print(f"FAIL: {what}")


def run(workload, trace):
    cmd = RUN + ["--workload", workload, "--seed", "3", "--seconds", "0.5",
                 "--trace", str(trace), "--scale", "0.02"]
    r = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=900)
    label = f"{workload} trace={trace}"
    check(r.returncode == 0, f"{label}: exit {r.returncode}")
    lines = r.stdout.strip().splitlines()
    if not lines:
        check(False, f"{label}: no output")
        return {}
    res = json.loads(lines[-1])
    check(res.get("correct") is True, f"{label}: correct={res.get('correct')}")
    check(isinstance(res.get("attempted"), int) and res["attempted"] >= 1,
          f"{label}: attempted={res.get('attempted')}")
    want = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    got = res.get("metrics", {})
    for name, unit in want.items():
        m = got.get(name)
        check(m is not None, f"{label}: {name} missing")
        if m is None:
            continue
        check(m.get("unit") == unit, f"{label}: {name} unit {m.get('unit')} != {unit}")
        v = m.get("value")
        check(isinstance(v, (int, float)) and math.isfinite(v), f"{label}: {name} = {v}")
    check(set(got) == set(want), f"{label}: extra metrics {sorted(set(got) - set(want))}")
    print(f"ok: {label}: {len(got)} metrics")
    return got


def main():
    for w in SPEC["workloads"]:
        name = w["name"]
        e2e = run(name, 0)
        for m in SPEC["end_to_end"]:
            check(e2e.get(m["name"], {}).get("value", 0) > 0,
                  f"{name}: end-to-end {m['name']} is not positive")
        layer = run(name, 1)
        overhead = layer.get("trace.overhead_share", {}).get("value")
        coverage = layer.get("trace.span_coverage", {}).get("value")
        check(overhead is not None and overhead < 1.0,
              f"{name}: trace.overhead_share = {overhead}")
        check(coverage is not None and 0.0 < coverage <= 1.5,
              f"{name}: trace.span_coverage = {coverage}")

    # Without the repository's sources the benchmark must fail cleanly.
    bare = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "selftest_bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    for path in SPEC["paths"]:
        shutil.copytree(os.path.join(ROOT, path), os.path.join(bare, path),
                        ignore=shutil.ignore_patterns("__pycache__"))
    r = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "svc_open",
                        "--seed", "1", "--seconds", "1", "--trace", "0"],
                       cwd=bare, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                       text=True, timeout=180)
    last = r.stdout.strip().splitlines()[-1:] or [""]
    check(r.returncode != 0 and not last[0].startswith("{"),
          f"bare directory: exit {r.returncode}, last line {last[0][:80]!r}")
    shutil.rmtree(bare, ignore_errors=True)

    print("selftest:", "FAILED" if failures else "passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
