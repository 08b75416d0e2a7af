#!/usr/bin/env python3
"""Repository benchmark entry point.

    python3 perfbench/run.py --workload replay_tagless --seed 1 --seconds 20 --trace 0

Builds the perfbench binary and the tmb library from source (CMake, into
$CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench), runs one
workload, checks the result line against BENCHMARK.json and prints it as the
last line of standard output. Exits nonzero without a result line when the
sources are missing or the build fails, and nonzero after the result line
when a correctness check failed. See perfbench/README.md.
"""
import argparse
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 880


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"no tmb sources under {ROOT}/src; run from a full checkout")
    out = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "perfbench")
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", out, "-j4", "--target", "perfbench"])
    for cmd in steps:
        try:
            r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                               timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as e:
            fail(f"build step {cmd[:2]} failed: {e}")
        if r.returncode != 0:
            fail(f"build step {' '.join(cmd[:2])} exited {r.returncode}")
    return os.path.join(out, "perfbench")


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def check_result(line, trace):
    """Returns the parsed result line, or exits when it breaks the contract."""
    try:
        res = json.loads(line)
    except ValueError:
        fail(f"last output line is not JSON: {line[:200]!r}", 3)
    if set(res) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"result keys {sorted(res)}", 3)
    if not isinstance(res["attempted"], int) or res["attempted"] < 1 \
            or not isinstance(res["failed"], int) or res["failed"] < 0:
        fail("attempted/failed must be whole numbers, attempted >= 1", 3)
    want = expected_metrics(trace)
    got = res["metrics"]
    if set(got) != set(want):
        fail(f"metrics differ from BENCHMARK.json: missing {sorted(set(want) - set(got))}, "
             f"extra {sorted(set(got) - set(want))}", 3)
    for name, m in got.items():
        if set(m) != {"value", "unit"} or m["unit"] != want[name] \
                or not isinstance(m["value"], (int, float)) or not math.isfinite(m["value"]):
            fail(f"metric {name}: {m} (unit should be {want[name]})", 3)
    return res


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["replay_tagless", "stamp_tl2", "svc_open"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--scale", type=float, default=1.0,
                    help="work per sub-run and warm-up (the self-test uses a tiny one)")
    args = ap.parse_args()
    if args.seed < 0 or not args.seconds > 0 or not args.scale > 0:
        fail("--seed must be >= 0, --seconds and --scale > 0")

    binary = build()
    cmd = [binary, f"--workload={args.workload}", f"--seed={args.seed}",
           f"--seconds={args.seconds}", f"--trace={args.trace}", f"--scale={args.scale}"]
    try:
        r = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s", 1)
    lines = r.stdout.rstrip("\n").splitlines()
    if r.returncode not in (0, 1) or not lines:
        print(r.stdout, end="")
        fail(f"perfbench exited {r.returncode}", 1)
    for line in lines[:-1]:
        print(line)
    res = check_result(lines[-1], args.trace)
    print(json.dumps(res))
    if r.returncode != 0 or not res["correct"]:
        fail("a correctness check failed (see CHECK FAILED above)", 1)


if __name__ == "__main__":
    main()
